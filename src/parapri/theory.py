"""Prioritized default theories: data model, file format, grounding, fixtures.

Theory file format (line oriented, ``#`` comments)::

    atoms: a b c                      optional explicit universe
    base: <formula>                   repeatable
    default <label>: <formula>
    prefer <label> > <label>          left side has higher priority
    fix <label>: <formula>
    domain: c1 c2 ...                 switches to schema (first-order) mode
    schema <label>[X,Y]: <formula>    variables are uppercase identifiers

Priority is entered as covering edges; the transitive closure is computed
and validated for acyclicity at load time, and only the closure is kept:
``print_theory`` writes one ``prefer`` line per closure pair. One walk over
the strongly connected components of the lower -> higher edges fills the
closure and finds any cycle; ``lp.stratify`` runs the same walk over a
program's dependencies. A grounded order takes its closure from the
schema-level one, one block of instances per schema.

The transform's recurrence lives here, as ``nest_values``, because theories
are printed here: a theory made by ``transform.parallel_theory`` keeps the
transform's ``nest`` (its sources and their dominator positions), and
``default_values`` values such a theory's defaults from their sources
alone: as formulas, masks or texts, one block at a time.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import CycleError, ParseError, ValidationError
from .formula import (
    FALSE,
    IDENT,
    LABEL_RE,
    TRUE,
    VARIABLE_RE,
    Atom,
    Formula,
    Not,
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


def transitive_closure(edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Smallest transitive superset of ``edges``; raises CycleError if it
    would contain a reflexive pair, naming the least label on a cycle."""
    edges = list(edges)
    return PriorityOrder(tuple(dict.fromkeys(x for e in edges for x in e)), edges).closure


@dataclass(frozen=True, init=False)
class PriorityOrder:
    """Finite strict partial order over default labels, held as its closure:
    ``above`` has one int per label, in ``indices`` order, whose bit k is set
    when ``indices[k]`` is strictly higher. The constructor closes (higher,
    lower) pairs and rejects undeclared labels and cycles; pairs with the
    same closure give equal orders. ``ground`` passes ``_closed`` the masks
    it reads off the schema-level order. ``position``, ``closure`` and
    ``dominators_map`` are views built on first use; ``dominators_map``
    shares one frozenset among the labels with one mask, such as the
    instances of a schema.
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
        if len(set(indices)) != len(indices):
            raise ValidationError("duplicate label in priority order")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "above", above)

    @cached_property
    def position(self) -> dict[str, int]:
        """Label -> its index in ``indices``."""
        return dict(zip(self.indices, range(len(self.indices))))

    @cached_property
    def closure(self) -> frozenset[tuple[str, str]]:
        names = self.indices
        return frozenset((names[j], names[i]) for i, a in enumerate(self.above) for j in iter_bits(a))

    @cached_property
    def dominators_map(self) -> dict[str, frozenset[str]]:
        names = self.indices
        sets = {a: frozenset(names[j] for j in iter_bits(a)) for a in set(self.above)}
        return {i: sets[a] for i, a in zip(names, self.above)}

    @property
    def is_empty(self) -> bool:
        return not any(self.above)


def parallel_order(labels: Iterable[str]) -> PriorityOrder:
    return PriorityOrder(tuple(labels))


# A transform's source formulas and, per source, its dominators' positions.
Nest = tuple[tuple[Formula, ...], tuple[tuple[int, ...], ...]]


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


def default_values(
    defaults: Sequence[LabeledFormula], nest: Nest | None, value: Callable, or_: Callable, and_: Callable
) -> Iterator:
    """``value`` of each formula of ``defaults``, in order. Given the nest of
    the transform that built them, only its sources are valued, and
    ``nest_values`` combines them with ``or_`` and ``and_``."""
    if nest is None:
        return (value(f) for _, f in defaults)
    sources, sigmas = nest
    return nest_values([value(f) for f in sources], sigmas, or_, and_)


@dataclass(frozen=True)
class Theory:
    """Construction checks the labels, the universe for duplicates, and
    every formula's atoms against the universe. ``_known_atoms`` skips that
    atom walk where the universe holds them by construction: in
    ``parallel_theory``, ``ground``, ``build_theory`` when no universe is
    given, and ``parse_theory``, whose parse has collected the atoms."""

    universe: tuple[str, ...]
    base: tuple[Formula, ...]
    defaults: tuple[LabeledFormula, ...]
    priority: PriorityOrder
    fixtures: tuple[LabeledFormula, ...] = ()
    # Set by ``transform.parallel_theory``: the transform's nest, from which
    # ``default_values`` values the defaults; None for any other theory.
    nest: Nest | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = [d.label for d in self.defaults]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate default label")
        fix_labels = [f.label for f in self.fixtures]
        if len(set(fix_labels)) != len(fix_labels):
            raise ValidationError("duplicate fixture label")
        if self.priority.indices != tuple(labels):
            raise ValidationError("priority indices do not match default labels")
        if len(set(self.universe)) != len(self.universe):
            raise ValidationError("duplicate atom in universe")
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

    @property
    def default_labels(self) -> tuple[str, ...]:
        return tuple(d.label for d in self.defaults)


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
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate default/schema label")
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

    Each schema's formula becomes a ``postorder`` list and its atom names
    templates, once; each instance runs the list on its own Atoms. The
    instances form one block of mutually unordered labels. A schema edge
    stands for all pairs of instances, whose closure is ``s.order``'s with
    each label widened to its block: one ``above`` mask per schema, shared
    by its instances; the pairs are never built. A cycle among instances
    would project onto a schema-level one, which ``s.order`` has rejected.
    """
    grounded: list[LabeledFormula] = list(s.defaults)
    # Atom names in first-mention order; the instances share one Atom per name.
    universe: dict[str, Atom | None] = dict.fromkeys(formula_atoms(*s.base, *(f for _, f in s.defaults)))
    blocks = [1 << k for k in range(len(s.defaults))]  # blocks[k]: the grounded labels of s.order's label k
    for schema in s.schemas:
        start = len(grounded)
        program = postorder(schema.formula)
        templates = {n: _template(n, schema.params) for n in program if type(n) is str}
        leaves: dict[str | bool, Formula] = {True: TRUE, False: FALSE}  # atom names are refilled per instance
        for combo in itertools.product(s.domain, repeat=len(schema.params)):
            for n, t in templates.items():
                name = t.format(*combo)
                leaves[n] = universe[name] = universe.get(name) or Atom(name)
            stack: list[Formula] = []
            for op in program:
                if op is Not:
                    stack[-1] = Not(stack[-1])
                elif type(op) is type:  # a binary node type
                    right = stack.pop()
                    stack[-1] = op(stack[-1], right)
                else:  # an atom name or a constant's bool
                    stack.append(leaves[op])
            label = f"{schema.label}[{','.join(combo)}]" if schema.params else schema.label
            grounded.append(LabeledFormula(label, stack[0]))
        blocks.append((1 << len(grounded)) - (1 << start))
    above: list[int] = []
    for a, block in zip(s.order.above, blocks):  # the blocks are disjoint: their sum is their union
        above += [sum(blocks[j] for j in iter_bits(a))] * block.bit_count()
    return Theory._known_atoms(
        universe=tuple(dict.fromkeys((*universe, *formula_atoms(*(f for _, f in s.fixtures))))),
        base=s.base,
        defaults=tuple(grounded),
        priority=PriorityOrder._closed(tuple(lf.label for lf in grounded), tuple(above)),
        fixtures=s.fixtures,
    )


def fixtures_to_defaults(t: Theory) -> Theory:
    """Replace each fixture F by the parallel pair of defaults F and ~F."""
    existing = {d.label for d in t.defaults}
    new_defaults = list(t.defaults)
    for label, f in t.fixtures:
        for new_label, g in ((f"fix_{label}", f), (f"nfix_{label}", Not(f))):
            if new_label in existing:
                raise ValidationError(f"generated label {new_label!r} clashes with an existing default")
            existing.add(new_label)
            new_defaults.append(LabeledFormula(new_label, g))
    above = t.priority.above + (0,) * (2 * len(t.fixtures))  # the new labels are unordered
    return replace(
        t,
        defaults=tuple(new_defaults),
        priority=PriorityOrder._closed(tuple(d.label for d in new_defaults), above),
        fixtures=(),
    )


def parse_theory(text: str) -> Union[Theory, SchemaTheory]:
    """Parse a theory file; returns a SchemaTheory when ``domain:`` occurs.

    One name -> Atom dict serves every formula: when the base, default and
    fix lines come in that order, its keys are the atoms in mention order.
    """
    explicit_atoms: tuple[str, ...] | None = None
    domain: tuple[str, ...] | None = None
    base: list[Formula] = []
    defaults: list[LabeledFormula] = []
    schemas: list[Schema] = []
    fixtures: list[LabeledFormula] = []
    edges: list[tuple[str, str]] = []
    names: dict[str, Atom] = {}
    in_order = True  # no base line after a default or fix line, nor a default line after a fix line

    def fail(msg: str, lineno: int):
        raise ParseError(msg, line=lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("atoms:"):
                if explicit_atoms is not None:
                    fail("duplicate atoms: line", lineno)
                explicit = []
                for n in line[len("atoms:"):].split():
                    if (atom := parse_atom(n, names)) is None:
                        fail(f"bad atom name {n!r}", lineno)
                    explicit.append(atom.name)
                explicit_atoms = tuple(explicit)
            elif line.startswith("base:"):
                in_order = in_order and not defaults and not fixtures
                base.append(parse_formula(line[len("base:"):], names))
            elif line.startswith("domain:"):
                if domain is not None:
                    fail("duplicate domain: line", lineno)
                consts = line[len("domain:"):].split()
                for c in consts:
                    if not _IDENT_RE.fullmatch(c):
                        fail(f"bad domain constant {c!r}", lineno)
                for c, n in Counter(consts).items():
                    if n > 1:
                        fail(f"duplicate domain constant {c!r}", lineno)
                domain = tuple(consts)
            elif line.startswith("default "):
                head, _, body = line[len("default "):].partition(":")
                label = head.strip()
                if not LABEL_RE.fullmatch(label):
                    fail(f"bad default label {label!r}", lineno)
                in_order = in_order and not fixtures
                defaults.append(LabeledFormula(label, parse_formula(body, names)))
            elif line.startswith("schema "):
                head, _, body = line[len("schema "):].partition(":")
                m = _SCHEMA_HEAD_RE.fullmatch(head.strip())
                if not m:
                    fail(f"bad schema head {head.strip()!r}", lineno)
                params = tuple(p.strip() for p in m.group(2).split(",")) if m.group(2).strip() else ()
                schemas.append(Schema(m.group(1), params, parse_formula(body, names)))
            elif line.startswith("prefer "):
                m = _PREFER_RE.fullmatch(line)
                if not m:
                    fail("bad prefer line, expected 'prefer <label> > <label>'", lineno)
                edges.append((m.group(1), m.group(2)))
            elif line.startswith("fix "):
                head, _, body = line[len("fix "):].partition(":")
                label = head.strip()
                if not LABEL_RE.fullmatch(label):
                    fail(f"bad fixture label {label!r}", lineno)
                fixtures.append(LabeledFormula(label, parse_formula(body, names)))
            else:
                fail(f"unrecognized directive {line.split()[0]!r}", lineno)
        except ParseError as e:
            if e.line is None:
                raise ParseError(str(e), line=lineno) from None
            raise

    if domain is not None or schemas:
        if explicit_atoms is not None:
            raise ValidationError("explicit atoms: line is not supported with a domain")
        return SchemaTheory(
            domain=domain or (),
            base=tuple(base),
            defaults=tuple(defaults),
            schemas=tuple(schemas),
            edges=frozenset(edges),
            fixtures=tuple(fixtures),
        )
    mentioned = tuple(names) if in_order else formula_atoms(*base, *(f for _, f in (*defaults, *fixtures)))
    theory = Theory._known_atoms(
        universe=mentioned if explicit_atoms is None else explicit_atoms,
        base=tuple(base),
        defaults=tuple(defaults),
        priority=PriorityOrder(tuple(d.label for d in defaults), edges),
        fixtures=tuple(fixtures),
    )
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
    names, above = t.priority.indices, t.priority.above
    pairs = sorted((j, i) for i, a in enumerate(above) if a for j in iter_bits(a))
    lines = [f"atoms: {' '.join(t.universe)}"] if t.universe else ["atoms:"]
    lines += [f"base: {to_text(f)}" for f in t.base]
    lines += [f"default {l}: {s}" for (l, _), s in zip(t.defaults, default_texts(t.defaults, t.nest))]
    lines += [f"prefer {names[j]} > {names[i]}" for j, i in pairs]
    lines += [f"fix {l}: {to_text(f)}" for l, f in t.fixtures]
    return "\n".join(lines) + "\n"


def default_texts(defaults: Sequence[LabeledFormula], nest: Nest | None) -> Iterator[str]:
    """``to_text`` of each formula of ``defaults``, through ``nest`` as in
    ``default_values``."""
    return default_values(defaults, nest, to_text, "({} | {})".format, "({} & {})".format)


def classify_order(order: PriorityOrder) -> str:
    """Shape of the priority order: parallel, chain/columnar, layered, general.

    Labels with the same ``above`` mask (every instance of one schema) have
    the same cover parents, so the work is done once per distinct mask. The
    order is layered when its distinct masks form a chain, each one the
    previous one together with the labels that have it.
    """
    if order.is_empty:
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
