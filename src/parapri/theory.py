"""Prioritized default theories: data model, file format, grounding, fixtures.

Theory file format (line oriented, ``#`` comments)::

    atoms: a b c                      optional explicit universe
    base: <formula>                   repeatable
    default <label>: <formula>
    prefer <label> > <label>          left side has higher priority
    fix <label>: <formula>
    domain: c1 c2 ...                 switches to schema (first-order) mode
    schema <label>[X,Y]: <formula>    variables are uppercase identifiers

``parse_theory`` reads every line in one loop, one reader per line shape:
``atoms:`` and ``domain:`` lines share one, and so do ``default`` and
``fix`` lines. A line's error is a ParseError numbered in one place, whose
``line`` is set and whose message ends in ``(line N)``; a formula's byte
offset stays in the message. Checks across lines (labels, order, universe)
raise ValidationError after the loop.

Priority is entered as covering edges; the transitive closure is computed
and validated for acyclicity at load time, and only the closure is kept:
``print_theory`` writes one ``prefer`` line per closure pair, and
``transitive_closure`` returns the pairs, both read off the masks by one
walk. One walk over the strongly connected components of the lower ->
higher edges fills the closure and finds any cycle; ``lp.stratify`` runs
the same walk over a program's dependencies. A grounded order takes its
closure from the schema-level one, one block of instances per schema.

Two theories hold a recipe in place of some fields, and build those fields
on the first read of any of them (``BuiltOnFirstRead``); the recipe is
data, so an unread theory still pickles, copies, compares and hashes.
``ground`` builds the instance labels and the order, and keeps the
``SchemaTheory``, from which the instance formulas and the universe are
built in one walk, or the universe alone when it is read first (the model
commands check it against the atom cap before anything else); ``stats``
reads the order alone and builds neither.
The transform's recurrence lives here, as ``nest_values``, because
theories are printed here. Every default set has a ``nest`` (output
labels, sources, per source its dominators' positions, and the sources'
labels), from which its defaults are valued as texts or cell columns, one
block at a time: a theory made by ``transform.parallel_theory`` keeps the
transform's, whose output formulas are built only when ``defaults`` is
first read; any other has the identity nest, each default its own source
with no dominators. A transform output's ``Provenance`` is built from
its nest too, on the first read of ``provenance``.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import CycleError, ParseError, ValidationError
from .formula import (
    FALSE,
    IDENT,
    LABEL_RE,
    TRUE,
    VARIABLE_RE,
    And,
    Atom,
    Formula,
    Not,
    Or,
    atoms as formula_atoms,
    iter_bits,
    parse_atom,
    parse_formula,
    postorder,
    to_text,
)


class LabeledFormula(NamedTuple):
    label: str
    formula: Formula


_DONE = float("inf")  # above every visit index: a node whose component is out lowers no ``low``


def strongly_connected(succ: Mapping) -> Iterator[list]:
    """The strongly connected components of the graph whose edges run from
    each key of ``succ`` to the nodes it lists, each yielded after every
    component it reaches (Tarjan, 1972). A node that is no key has no edge
    out: it is a component of its own, and is not yielded. The walk keeps
    its own stack, so its depth is bounded by memory, not by the recursion
    limit."""
    index = {}  # visit order, and _DONE once a node's component is out
    low = {}  # the least index on the stack that a node reaches
    stack = []  # visited nodes whose component is not out yet
    for root in succ:
        work = [] if root in index else [(root, None)]
        while work:
            a, edges = work.pop()
            if edges is None:
                index[a] = low[a] = len(index)
                stack.append(a)
                edges = iter(succ[a])
            for b in edges:
                if b not in index:
                    if b in succ:
                        work += [(a, edges), (b, None)]
                        break
                    index[b] = _DONE
                elif index[b] < low[a]:
                    low[a] = index[b]
            else:
                if work and low[a] < low[work[-1][0]]:
                    low[work[-1][0]] = low[a]
                if low[a] == index[a]:  # ``a`` and the nodes above it on the stack
                    component = [stack.pop()]
                    while component[-1] != a:
                        component.append(stack.pop())
                    for x in component:
                        index[x] = _DONE
                    yield component


def _order_masks(names: Sequence[str], edges: Iterable[tuple[int, int]]) -> list[int]:
    """For (higher, lower) position pairs over ``names``: one int per name
    whose bit k is set when ``names[k]`` is strictly higher, the rows of the
    transitive closure filled one component of the lower -> higher graph at
    a time. Raises CycleError naming the least name on a cycle: one in a
    component of two or more names, or with an edge to itself."""
    higher: dict[int, list[int]] = {}
    for hi, lo in edges:
        higher.setdefault(lo, []).append(hi)
    above = [0] * len(names)
    cyclic: list[int] = []
    for component in strongly_connected(higher):
        for lo in component:  # the names above are filled, unless lo lies on a cycle
            for hi in higher[lo]:
                above[lo] |= above[hi] | 1 << hi
        if len(component) > 1 or above[lo] >> lo & 1:  # a cycle, or one name above itself
            cyclic += component
    if cyclic:
        raise CycleError(f"priority cycle through {min(names[k] for k in cyclic)!r}")
    return above


def _check_unique(items: Collection, message: str) -> None:
    if len(set(items)) != len(items):
        raise ValidationError(message)


def _closure_pairs(above: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The (higher, lower) position pairs of the closure whose rows are ``above``."""
    return ((j, i) for i, a in enumerate(above) if a for j in iter_bits(a))


def transitive_closure(edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Smallest transitive superset of ``edges``; raises CycleError if it
    would contain a reflexive pair, naming the least label on a cycle."""
    edges = list(edges)
    order = PriorityOrder(tuple(dict.fromkeys(x for e in edges for x in e)), edges)
    return frozenset((order.indices[j], order.indices[i]) for j, i in _closure_pairs(order.above))


@dataclass(frozen=True, init=False)
class PriorityOrder:
    """Finite strict partial order over default labels, held as its closure:
    ``above`` has one int per label, in ``indices`` order, whose bit k is set
    when ``indices[k]`` is strictly higher. The constructor closes (higher,
    lower) pairs and rejects undeclared labels and cycles; pairs with the
    same closure give equal orders. ``PriorityOrder(labels)``, without
    edges, is the parallel order. ``ground`` passes ``_closed`` the masks
    it reads off the schema-level order. ``position`` and ``dominators_map``
    are views built on first use; ``dominators_map`` shares one frozenset
    among the labels with one mask, such as the instances of a schema.
    """

    indices: tuple[str, ...]
    above: tuple[int, ...]

    def __init__(self, indices: tuple[str, ...], edges: Collection[tuple[str, str]] = ()):
        # Without edges (the parallel order of every transform) nothing is
        # higher, and no label positions are built until ``position`` is read.
        self._fill(indices, (0,) * len(indices))
        if not edges:
            return
        position = self.position
        try:  # _order_masks reads every pair before it looks for a cycle
            above = _order_masks(indices, [(position[a], position[b]) for a, b in edges])
        except KeyError:
            undeclared = {x for e in edges for x in e}.difference(position)
            raise ValidationError(f"undeclared index {min(undeclared)!r} in priority order") from None
        object.__setattr__(self, "above", tuple(above))

    @classmethod
    def _closed(cls, indices: tuple[str, ...], above: tuple[int, ...]) -> PriorityOrder:
        """The order whose closure is ``above``, labels checked as by the constructor."""
        order = cls.__new__(cls)
        order._fill(indices, above)
        return order

    def _fill(self, indices: tuple[str, ...], above: tuple[int, ...]) -> None:
        _check_unique(indices, "duplicate label in priority order")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "above", above)

    @cached_property
    def position(self) -> dict[str, int]:
        """Label -> its index in ``indices``."""
        return dict(zip(self.indices, range(len(self.indices))))

    @cached_property
    def dominators_map(self) -> dict[str, frozenset[str]]:
        names = self.indices
        sets = {a: frozenset(names[j] for j in iter_bits(a)) for a in set(self.above)}
        return {i: sets[a] for i, a in zip(names, self.above)}


class Provenance(NamedTuple):
    """A transform output's source label, its dominators' labels and its
    bit string."""

    source: str
    sigma: tuple[str, ...]
    bits: str


def bit_strings(m: int) -> list[list[str]]:
    """``b[k]``, for k up to m, lists the k-bit strings from all ones down,
    each built by doubling ``b[k - 1]``."""
    b = [[""]]
    for _ in range(m):
        b.append(["1" + s for s in b[-1]] + ["0" + s for s in b[-1]])
    return b


class Nest(NamedTuple):
    """A transform's output labels, its source formulas, per source its
    dominators' positions, and the sources' labels: ``nest_values`` over
    the sources gives the outputs' formulas, in label order."""

    labels: tuple[str, ...]
    sources: tuple[Formula, ...]
    sigmas: tuple[tuple[int, ...], ...]
    source_labels: tuple[str, ...]

    def _built(self, x, name: str) -> dict[str, tuple]:
        """``x.defaults``, the outputs' formulas paired with their labels, or
        ``x.provenance``, each output's ``Provenance``: each alone."""
        if name == "provenance":
            names, bits = self.source_labels, bit_strings(max(map(len, self.sigmas), default=0))
            prov = []
            for source, sigma in zip(names, self.sigmas):
                named = tuple(map(names.__getitem__, sigma))
                prov += [Provenance(source, named, b) for b in bits[len(sigma)]]
            return {"provenance": tuple(prov)}
        return {"defaults": tuple(map(LabeledFormula, self.labels, nest_values(self.sources, self.sigmas, Or, And)))}


def nest_values(values: Sequence, sigmas: Sequence[Sequence[int]], or_: Callable, and_: Callable) -> Iterator:
    """The transform's recurrence over any value type: for each source i,
    with value ``values[i]`` and dominator positions ``sigmas[i]`` =
    (j1, ..., jm), the values of its 2^m nests
    ``values[j1] g1 (... (values[jm] gm values[i]))``, bit strings from all
    ones down, where a 1 bit makes gk ``and_`` and a 0 bit ``or_``.

    A block is built innermost first, so its nests share their suffixes:
    each step doubles it to ``or_(s, a)`` for every a, then ``and_(s, a)``,
    2^(m+1) - 2 calls per block. The outermost step is yielded, not stored.
    """
    for v, sigma in zip(values, sigmas):
        if not sigma:
            yield v
            continue
        block = [v]  # innermost first: block[k] is the nest below sigma[0] for k's bits
        for j in sigma[:0:-1]:
            s = values[j]
            block = [or_(s, a) for a in block] + [and_(s, a) for a in block]
        s = values[sigma[0]]
        block.reverse()
        for a in block:
            yield and_(s, a)
        for a in block:
            yield or_(s, a)


class OnFirstRead:
    """A field of a frozen dataclass that an instance made by
    ``BuiltOnFirstRead._from_recipe`` builds on its first read. The recipe
    is data: its ``_built(x, name)`` returns, by name, the fields it builds
    on the first read of field ``name``, that one among them, all of which
    are then stored in ``x``. A ``Nest`` builds ``defaults`` or
    ``provenance``, each alone, so a read of either builds nothing of the
    other; a ``SchemaTheory`` builds ``universe`` alone, or both
    ``defaults`` and ``universe`` in one walk on a read of ``defaults``.

    The descriptor has no ``__set__``, so an instance's own field hides it:
    one given to the constructor, or one built. Read on the class it raises
    AttributeError, so the dataclass decorator gives the field no default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, x, owner=None):
        if x is None:
            raise AttributeError(self.name)
        fields = vars(x)
        fields.update(fields["_recipe"]._built(x, self.name))
        return fields[self.name]


class BuiltOnFirstRead:
    """For a frozen dataclass whose lazy fields are ``OnFirstRead``: one
    made by ``_from_recipe`` keeps its recipe, and has none of those fields
    until they are read, when the recipe builds each one read with those
    it builds alongside. Any other instance has its fields from
    construction, and no recipe."""

    @classmethod
    def _from_recipe(cls, recipe, **fields):
        """An instance with ``fields`` as given and the rest built from
        ``recipe`` on first read, unchecked."""
        x = cls.__new__(cls)
        vars(x).update(fields, _recipe=recipe)
        return x

    @property
    def nest(self) -> Nest:
        """The nest from which ``labeled_texts`` and
        ``circumscription.cell_columns`` value the defaults: the transform's,
        if this was made from one, else the identity nest, each default its
        own source, under its own label, with no dominators."""
        if type(recipe := vars(self).get("_recipe")) is Nest:
            return recipe
        labels, sources = [*zip(*self.defaults)] or ((), ())
        return Nest(labels, sources, ((),) * len(labels), labels)


@dataclass(frozen=True)
class Theory(BuiltOnFirstRead):
    """Construction checks the labels, the universe for duplicates, and
    every formula's atoms against the universe. ``_known_atoms`` skips that
    atom walk where the universe holds them by construction: in
    ``encode_stratified``, the pruner's self-check, whose truth tables have
    valued every formula over the universe, ``build_theory`` when no
    universe is given, and ``parse_theory``, whose parse has collected the
    atoms. Two makers skip every check but the order's and build by
    ``_from_recipe``, their other fields those of a checked theory:
    ``parallel_theory``, from the output's nest, whose labels the
    transform has checked (a repeated label of a hand-built output is
    refused by its parallel order), and ``ground``, from the schema theory,
    after its own label checks."""

    universe: tuple[str, ...] = OnFirstRead()
    base: tuple[Formula, ...]
    defaults: tuple[LabeledFormula, ...] = OnFirstRead()
    priority: PriorityOrder
    fixtures: tuple[LabeledFormula, ...] = ()

    def __post_init__(self):
        labels = tuple(d.label for d in self.defaults)
        _check_unique(labels, "duplicate default label")
        _check_unique([f.label for f in self.fixtures], "duplicate fixture label")
        if self.priority.indices != labels:
            raise ValidationError("priority indices do not match default labels")
        _check_unique(self.universe, "duplicate atom in universe")
        if self.__dict__.pop("_atoms_known", False):  # set by _known_atoms
            return
        declared = set(self.universe)
        for a in formula_atoms(*self.base, *(f for _, f in (*self.defaults, *self.fixtures))):
            if a not in declared:
                raise ValidationError(f"atom {a!r} not in declared universe")

    @classmethod
    def _known_atoms(cls, universe, base, defaults, priority, fixtures=()) -> Theory:
        """Checked as by the constructor, but without the atom walk."""
        theory = cls.__new__(cls)
        theory.__dict__["_atoms_known"] = True
        theory.__init__(universe, base, defaults, priority, fixtures)
        return theory


class Schema(NamedTuple):
    label: str
    params: tuple[str, ...]
    formula: Formula


@dataclass(frozen=True)
class SchemaTheory:
    """A theory with parameterized defaults, grounded over a finite domain."""

    domain: tuple[str, ...]
    base: tuple[Formula, ...]
    defaults: tuple[LabeledFormula, ...]
    schemas: tuple[Schema, ...]
    edges: frozenset[tuple[str, str]]
    fixtures: tuple[LabeledFormula, ...] = ()
    # Over the default, then the schema labels: rejects undeclared labels and cycles before grounding.
    order: PriorityOrder = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = [d.label for d in self.defaults] + [s.label for s in self.schemas]
        _check_unique(labels, "duplicate default/schema label")
        if self.schemas and not self.domain:
            raise ValidationError("schemas present but the domain is empty")
        object.__setattr__(self, "order", PriorityOrder(tuple(labels), self.edges))
        for s in self.schemas:
            for k, p in enumerate(s.params):
                if not VARIABLE_RE.fullmatch(p):
                    raise ValidationError(f"schema parameter {p!r} is not an uppercase identifier")
                if p in s.params[:k]:
                    raise ValidationError(f"schema {s.label!r} repeats parameter {p!r}")
            free = _schema_variables(s.formula) - set(s.params)
            if free:
                raise ValidationError(f"schema {s.label!r} uses undeclared variables {sorted(free)}")

    def _built(self, x: Theory, name: str) -> dict[str, tuple]:
        """For ``x = ground(self)``: on a read of ``x.universe``, the
        universe alone, with no formula built; on a read of ``x.defaults``,
        both fields. One loop serves both reads, and either way the
        universe lists the same names in first-mention order, the fixtures'
        atoms last.

        Each schema's formula becomes a ``postorder`` list and its atom
        names templates, once. Each instance fills the templates: a
        universe read adds the names alone; a defaults read runs the list
        on the instance's own Atoms and takes its label from ``x``'s order."""
        # Atom names in first-mention order; the instances share one Atom per name.
        universe: dict[str, Atom | None] = dict.fromkeys(formula_atoms(*self.base, *(f for _, f in self.defaults)))
        grounded: list[LabeledFormula] = list(self.defaults)
        labels = iter(x.priority.indices[len(grounded):])
        for schema in self.schemas:
            program = postorder(schema.formula)
            templates = {n: _template(n, schema.params) for n in program if type(n) is str}
            leaves: dict[str | bool, Formula] = {True: TRUE, False: FALSE}  # atom names are refilled per instance
            for combo in itertools.product(self.domain, repeat=len(schema.params)):
                if name == "universe":
                    universe.update(dict.fromkeys(t.format(*combo) for t in templates.values()))
                    continue
                for n, t in templates.items():
                    atom = t.format(*combo)
                    leaves[n] = universe[atom] = universe.get(atom) or Atom(atom)
                stack: list[Formula] = []
                for op in program:
                    if op is Not:
                        stack[-1] = Not(stack[-1])
                    elif type(op) is type:  # a binary node type
                        right = stack.pop()
                        stack[-1] = op(stack[-1], right)
                    else:  # an atom name or a constant's bool
                        stack.append(leaves[op])
                grounded.append(LabeledFormula(next(labels), stack[0]))
        built = {"universe": tuple(dict.fromkeys((*universe, *formula_atoms(*(f for _, f in self.fixtures)))))}
        return built if name == "universe" else {**built, "defaults": tuple(grounded)}


_GROUND_ATOM_RE = re.compile(rf"({IDENT})\((.*)\)")
_IDENT_RE = re.compile(IDENT)
_SCHEMA_HEAD_RE = re.compile(rf"({IDENT})\[([^\]]*)\]")
_PREFER_RE = re.compile(r"prefer\s+(\S+)\s*>\s*(\S+)")


def _atom_parts(name: str) -> tuple[str | None, list[str]]:
    # An atom name's predicate and arguments; a bare name is its own argument.
    m = _GROUND_ATOM_RE.fullmatch(name)
    return (m.group(1), m.group(2).split(",")) if m else (None, [name])


def _schema_variables(f: Formula) -> set[str]:
    return {p for name in formula_atoms(f) for p in _atom_parts(name)[1] if VARIABLE_RE.fullmatch(p)}


def _template(name: str, params: tuple[str, ...]) -> str:
    # ``str.format`` template of an atom name: parameter k becomes ``{k}``.
    head, args = _atom_parts(name)
    text = ",".join(f"{{{params.index(a)}}}" if a in params else a for a in args)
    return f"{head}({text})" if head else text


def ground(s: SchemaTheory) -> Theory:
    """Replace every schema by the collection of its instances.

    Only the labels and the order are built here, and checked as the
    constructor would: a repeated label in ``PriorityOrder._closed``, a
    repeated fixture label here. The instance formulas and the universe
    are built by ``s._built``: both on the first read of the formulas, the
    universe alone on a read of it before them; a command that reads the
    order alone (``stats``) builds neither.

    The instances of a schema form one block of mutually unordered labels.
    A schema edge stands for all pairs of instances, whose closure is
    ``s.order``'s with each label widened to its block: one ``above`` mask
    per schema, shared by its instances; the pairs are never built. A
    cycle among instances would project onto a schema-level one, which
    ``s.order`` has rejected.
    """
    labels = [d.label for d in s.defaults]
    blocks = [1 << k for k in range(len(labels))]  # blocks[k]: the grounded labels of s.order's label k
    for schema in s.schemas:
        start = len(labels)
        for combo in itertools.product(s.domain, repeat=len(schema.params)):
            labels.append(f"{schema.label}[{','.join(combo)}]" if schema.params else schema.label)
        blocks.append((1 << len(labels)) - (1 << start))
    above: list[int] = []
    for a, block in zip(s.order.above, blocks):  # the blocks are disjoint: their sum is their union
        above += [sum(blocks[j] for j in iter_bits(a))] * block.bit_count()
    priority = PriorityOrder._closed(tuple(labels), tuple(above))
    _check_unique([f.label for f in s.fixtures], "duplicate fixture label")
    return Theory._from_recipe(s, base=s.base, priority=priority, fixtures=s.fixtures)


def parse_theory(text: str) -> Union[Theory, SchemaTheory]:
    """Parse a theory file; returns a SchemaTheory when ``domain:`` or a
    schema line occurs.

    One loop reads every line, dispatched on its directive: ``atoms:`` and
    ``domain:`` lines share one reader (one line each, per-name checks,
    then one check for a repeated name), and so do ``default`` and ``fix``
    lines (one label check, one list per kind). A line's reader raises
    ParseError with its message alone, and the loop numbers it, the one
    place that sets ``line``.
    One name -> Atom dict serves every formula: when the base, default and
    fix lines come in that order, its keys are the atoms in mention order.
    """
    lists: dict[str, tuple[str, ...]] = {}  # the names of the atoms: and of the domain: line
    labeled: dict[str, list[LabeledFormula]] = {"default": [], "fix": []}
    base: list[Formula] = []
    schemas: list[Schema] = []
    edges: list[tuple[str, str]] = []
    names: dict[str, Atom] = {}
    in_order = True  # no base line after a default or fix line, nor a default line after a fix line

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith(("atoms:", "domain:")):
                kind, _, rest = line.partition(":")
                if kind in lists:
                    raise ParseError(f"duplicate {kind}: line")
                items = rest.split()
                if kind == "atoms":
                    for k, n in enumerate(items):
                        if (atom := parse_atom(n, names)) is None:
                            raise ParseError(f"bad atom name {n!r}")
                        items[k] = atom.name
                else:
                    for c in items:
                        if not _IDENT_RE.fullmatch(c):
                            raise ParseError(f"bad domain constant {c!r}")
                if len(set(items)) < len(items):  # name the first name that repeats
                    c = next(c for c, n in Counter(items).items() if n > 1)
                    raise ParseError(f"duplicate {'atom' if kind == 'atoms' else 'domain constant'} {c!r}")
                lists[kind] = tuple(items)
            elif line.startswith("base:"):
                in_order = in_order and not labeled["default"] and not labeled["fix"]
                base.append(parse_formula(line[len("base:"):], names))
            elif line.startswith(("default ", "fix ")):
                kind, _, rest = line.partition(" ")
                head, _, body = rest.partition(":")
                label = head.strip()
                if not LABEL_RE.fullmatch(label):
                    raise ParseError(f"bad {'fixture' if kind == 'fix' else kind} label {label!r}")
                in_order = in_order and (kind == "fix" or not labeled["fix"])
                labeled[kind].append(LabeledFormula(label, parse_formula(body, names)))
            elif line.startswith("schema "):
                head, _, body = line[len("schema "):].partition(":")
                m = _SCHEMA_HEAD_RE.fullmatch(head.strip())
                if not m:
                    raise ParseError(f"bad schema head {head.strip()!r}")
                params = tuple(p.strip() for p in m.group(2).split(",")) if m.group(2).strip() else ()
                schemas.append(Schema(m.group(1), params, parse_formula(body, names)))
            elif line.startswith("prefer "):
                m = _PREFER_RE.fullmatch(line)
                if not m:
                    raise ParseError("bad prefer line, expected 'prefer <label> > <label>'")
                edges.append((m.group(1), m.group(2)))
            else:
                raise ParseError(f"unrecognized directive {line.split()[0]!r}")
        except ParseError as e:
            raise ParseError(str(e), line=lineno) from None

    defaults, fixtures = tuple(labeled["default"]), tuple(labeled["fix"])
    if "domain" in lists or schemas:
        if "atoms" in lists:
            raise ValidationError("explicit atoms: line is not supported with a domain")
        return SchemaTheory(lists.get("domain", ()), tuple(base), defaults, tuple(schemas), frozenset(edges), fixtures)
    mentioned = tuple(names) if in_order else formula_atoms(*base, *(f for _, f in (*defaults, *fixtures)))
    priority = PriorityOrder(tuple(d.label for d in defaults), edges)
    theory = Theory._known_atoms(lists.get("atoms", mentioned), tuple(base), defaults, priority, fixtures)
    if undeclared := names.keys() - theory.universe:
        raise ValidationError(f"atom {next(a for a in mentioned if a in undeclared)!r} not in declared universe")
    return theory


def build_theory(
    *,
    atoms: Sequence[str] | None = None,
    base: Sequence[Union[str, Formula]] = (),
    defaults: Sequence[tuple[str, Union[str, Formula]]] = (),
    prefer: Sequence[tuple[str, str]] = (),
    fixtures: Sequence[tuple[str, Union[str, Formula]]] = (),
) -> Theory:
    """Assemble a validated Theory; formulas may be given as text."""

    def conv(f: Union[str, Formula]) -> Formula:
        return parse_formula(f) if isinstance(f, str) else f

    base_f = tuple(conv(f) for f in base)
    defaults_f = tuple(LabeledFormula(l, conv(f)) for l, f in defaults)
    fixtures_f = tuple(LabeledFormula(l, conv(f)) for l, f in fixtures)
    make = Theory
    if atoms is None:
        atoms, make = formula_atoms(*base_f, *(f for _, f in (*defaults_f, *fixtures_f))), Theory._known_atoms
    return make(
        universe=tuple(atoms),
        base=base_f,
        defaults=defaults_f,
        priority=PriorityOrder(tuple(d.label for d in defaults_f), frozenset(prefer)),
        fixtures=fixtures_f,
    )


def print_theory(t: Theory) -> str:
    """Theory file text that parses back to an equal Theory: the order is
    printed as its closure pairs, by position of the higher label, then of
    the lower one."""
    names = t.priority.indices
    lines = [f"atoms: {' '.join(t.universe)}"] if t.universe else ["atoms:"]
    lines += [f"base: {to_text(f)}" for f in t.base]
    lines += [f"default {l}: {s}" for l, s in labeled_texts(t)]
    lines += [f"prefer {names[j]} > {names[i]}" for j, i in sorted(_closure_pairs(t.priority.above))]
    lines += [f"fix {l}: {to_text(f)}" for l, f in t.fixtures]
    return "\n".join(lines) + "\n"


def labeled_texts(x: BuiltOnFirstRead) -> Iterator[tuple[str, str]]:
    """Each default's label and ``to_text`` of its formula, for a Theory or
    a ``transform.TransformOutput``: only the nest's sources are printed,
    ``nest_values`` combines their texts, and no output formula is built."""
    nest = x.nest
    texts = nest_values([to_text(f) for f in nest.sources], nest.sigmas, "({} | {})".format, "({} & {})".format)
    return zip(nest.labels, texts)


def classify_order(order: PriorityOrder) -> str:
    """Shape of the priority order: parallel, chain/columnar, layered, general.

    Labels with the same ``above`` mask (every instance of one schema) have
    the same cover parents, so the work is done once per distinct mask. The
    order is layered when its distinct masks form a chain, each one the
    previous one together with the labels that have it.
    """
    if not any(order.above):
        return "parallel"
    above = order.above
    members: dict[int, int] = {}  # mask -> the labels that have it
    for i, a in enumerate(above):
        members[a] = members.get(a, 0) | 1 << i
    # The cover parents of a mask: labels in it that are above no other label in it.
    covers = {}
    for a in members:
        through = 0
        for j in iter_bits(a):
            through |= above[j]
        covers[a] = a & ~through
    seen = shared = 0  # shared: labels that are a cover parent twice
    for a, m in members.items():
        c = covers[a]
        shared |= c if m & (m - 1) else seen & c
        seen |= c
    if not shared and all(c & (c - 1) == 0 for c in covers.values()):
        return "chain/columnar"
    masks = sorted(members, key=int.bit_count)
    return "layered" if all(b == a | members[a] for a, b in zip(masks, masks[1:])) else "general"
