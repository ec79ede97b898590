"""parapri: prioritized propositional defaults made parallel.

The package turns a finite strict priority order over propositional
defaults into an equivalent parallel (unprioritized) default set, and
ships a brute-force preferred-model engine that makes the equivalence,
skeptical queries, and the related encodings (inheritance pruning,
guarded abnormality rules, stratified logic programs) machine-checkable
at small atom counts.
"""

from .circumscription import (
    PreferredModelSet,
    circ_equivalent,
    format_model,
    preferred_models,
    preorder_equivalent,
    skeptical_entails,
)
from .errors import (
    CapExceededError,
    CycleError,
    InternalError,
    NotStratifiedError,
    ParapriError,
    ParseError,
    UniverseError,
    ValidationError,
)
from .formula import (
    And,
    Atom,
    Const,
    FALSE,
    Formula,
    Iff,
    Implies,
    Interpretation,
    Not,
    Or,
    TRUE,
    atoms,
    parse_formula,
    to_text,
    truth_mask,
)
from .lp import Clause, Program, encode_stratified, parse_program, stratify
from .preorder import PreorderSpec
from .specificity import PruneReport, encode_abnormality, prune_redundant
from .theory import (
    LabeledFormula,
    PriorityOrder,
    Schema,
    SchemaTheory,
    Theory,
    build_theory,
    classify_order,
    ground,
    parse_theory,
    print_theory,
    transitive_closure,
)
from .transform import (
    Provenance,
    SizeReport,
    TransformOutput,
    output_size,
    parallel_theory,
    transform_all,
    transform_canonical,
    transform_theory,
)

__version__ = "0.1.0"
