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
and validated for acyclicity at load time.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import CycleError, ParseError, ValidationError
from .formula import (
    ATOM_RE,
    IDENT,
    LABEL_RE,
    VARIABLE_RE,
    Atom,
    Formula,
    Not,
    atoms as formula_atoms,
    fold,
    parse_formula,
    to_text,
)


class LabeledFormula(NamedTuple):
    label: str
    formula: Formula


def transitive_closure(edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Smallest transitive superset of ``edges``; raises CycleError if it
    would contain a reflexive pair, naming the least label on a cycle."""
    direct: dict[str, set[str]] = {}
    nodes: set[str] = set()
    for a, b in edges:
        direct.setdefault(a, set()).add(b)
        nodes.update((a, b))
    reach = {x: set(direct.get(x, ())) for x in nodes}
    changed = True
    while changed:
        changed = False
        for x in nodes:
            extra = set()
            for y in reach[x]:
                extra |= reach.get(y, set())
            if not extra <= reach[x]:
                reach[x] |= extra
                changed = True
    cyclic = [x for x in nodes if x in reach[x]]
    if cyclic:
        raise CycleError(f"priority cycle through {min(cyclic)!r}")
    return frozenset((x, y) for x in nodes for y in reach[x])


@dataclass(frozen=True)
class PriorityOrder:
    """Finite strict partial order over default labels.

    ``edges`` holds (higher, lower) pairs as entered; ``closure`` is the
    transitive closure, computed once and checked for irreflexivity.
    """

    indices: tuple[str, ...]
    edges: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        declared = set(self.indices)
        if len(declared) != len(self.indices):
            raise ValidationError("duplicate label in priority order")
        for a, b in self.edges:
            for x in (a, b):
                if x not in declared:
                    raise ValidationError(f"undeclared index {x!r} in priority order")
        self.closure  # force cycle detection at construction

    @cached_property
    def closure(self) -> frozenset[tuple[str, str]]:
        return transitive_closure(self.edges)

    @cached_property
    def dominators_map(self) -> dict[str, frozenset[str]]:
        doms: dict[str, set[str]] = {i: set() for i in self.indices}
        for j, i in self.closure:
            doms[i].add(j)
        return {i: frozenset(doms[i]) for i in self.indices}

    def higher(self, j: str, i: str) -> bool:
        return (j, i) in self.closure

    @property
    def is_empty(self) -> bool:
        return not self.edges


def parallel_order(labels: Iterable[str]) -> PriorityOrder:
    return PriorityOrder(tuple(labels), frozenset())


@dataclass(frozen=True)
class Theory:
    universe: tuple[str, ...]
    base: tuple[Formula, ...]
    defaults: tuple[LabeledFormula, ...]
    priority: PriorityOrder
    fixtures: tuple[LabeledFormula, ...] = ()

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
        declared = set(self.universe)
        for a in formula_atoms(*self.base, *(f for _, f in (*self.defaults, *self.fixtures))):
            if a not in declared:
                raise ValidationError(f"atom {a!r} not in declared universe")

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

    def __post_init__(self):
        labels = [d.label for d in self.defaults] + [s.label for s in self.schemas]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate default/schema label")
        if self.schemas and not self.domain:
            raise ValidationError("schemas present but the domain is empty")
        declared = set(labels)
        for a, b in self.edges:
            for x in (a, b):
                if x not in declared:
                    raise ValidationError(f"undeclared index {x!r} in priority order")
        transitive_closure(self.edges)  # reject cycles before grounding
        for s in self.schemas:
            for p in s.params:
                if not VARIABLE_RE.fullmatch(p):
                    raise ValidationError(f"schema parameter {p!r} is not an uppercase identifier")
            free = _schema_variables(s.formula) - set(s.params)
            if free:
                raise ValidationError(f"schema {s.label!r} uses undeclared variables {sorted(free)}")


_GROUND_ATOM_RE = re.compile(rf"({IDENT})\((.*)\)")


def _schema_variables(f: Formula) -> set[str]:
    out: set[str] = set()
    for name in formula_atoms(f):
        m = _GROUND_ATOM_RE.fullmatch(name)
        parts = m.group(2).split(",") if m else [name]
        out.update(p for p in parts if VARIABLE_RE.fullmatch(p))
    return out


def _substitute_atom(name: str, binding: dict[str, str]) -> str:
    m = _GROUND_ATOM_RE.fullmatch(name)
    if m:
        args = [binding.get(p, p) for p in m.group(2).split(",")]
        return f"{m.group(1)}({','.join(args)})"
    return binding.get(name, name)


def _substitute(f: Formula, binding: dict[str, str]) -> Formula:
    def leaf(g: Formula) -> Formula:
        return Atom(_substitute_atom(g.name, binding)) if type(g) is Atom else g

    return fold(f, leaf, lambda g, *args: type(g)(*args))


def ground(s: SchemaTheory) -> Theory:
    """Replace every schema by the collection of its instances.

    Instances of one schema are mutually unordered; a priority edge between
    schema labels induces edges between all pairs of their instances.
    """
    if s.schemas and not s.domain:
        raise ValidationError("cannot ground: empty domain with schemas present")
    instances: dict[str, list[str]] = {d.label: [d.label] for d in s.defaults}
    grounded: list[LabeledFormula] = list(s.defaults)
    for schema in s.schemas:
        labels: list[str] = []
        for combo in itertools.product(s.domain, repeat=len(schema.params)):
            label = schema.label if not schema.params else f"{schema.label}[{','.join(combo)}]"
            labels.append(label)
            grounded.append(LabeledFormula(label, _substitute(schema.formula, dict(zip(schema.params, combo)))))
        instances[schema.label] = labels
    lifted = frozenset(
        (ga, gb)
        for a, b in s.edges
        for ga in instances[a]
        for gb in instances[b]
    )
    universe = formula_atoms(*s.base, *(f for _, f in (*grounded, *s.fixtures)))
    return Theory(
        universe=universe,
        base=s.base,
        defaults=tuple(grounded),
        priority=PriorityOrder(tuple(lf.label for lf in grounded), lifted),
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
    return replace(
        t,
        defaults=tuple(new_defaults),
        priority=PriorityOrder(tuple(d.label for d in new_defaults), t.priority.edges),
        fixtures=(),
    )


def parse_theory(text: str) -> Union[Theory, SchemaTheory]:
    """Parse a theory file; returns a SchemaTheory when ``domain:`` occurs."""
    explicit_atoms: tuple[str, ...] | None = None
    domain: tuple[str, ...] | None = None
    base: list[Formula] = []
    defaults: list[LabeledFormula] = []
    schemas: list[Schema] = []
    fixtures: list[LabeledFormula] = []
    edges: list[tuple[str, str]] = []

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
                names = line[len("atoms:"):].split()
                for n in names:
                    if not ATOM_RE.fullmatch(n):
                        fail(f"bad atom name {n!r}", lineno)
                explicit_atoms = tuple(names)
            elif line.startswith("base:"):
                base.append(parse_formula(line[len("base:"):]))
            elif line.startswith("domain:"):
                if domain is not None:
                    fail("duplicate domain: line", lineno)
                consts = line[len("domain:"):].split()
                for c in consts:
                    if not re.fullmatch(IDENT, c):
                        fail(f"bad domain constant {c!r}", lineno)
                domain = tuple(consts)
            elif line.startswith("default "):
                head, _, body = line[len("default "):].partition(":")
                label = head.strip()
                if not LABEL_RE.fullmatch(label):
                    fail(f"bad default label {label!r}", lineno)
                defaults.append(LabeledFormula(label, parse_formula(body)))
            elif line.startswith("schema "):
                head, _, body = line[len("schema "):].partition(":")
                m = re.fullmatch(rf"({IDENT})\[([^\]]*)\]", head.strip())
                if not m:
                    fail(f"bad schema head {head.strip()!r}", lineno)
                params = tuple(p.strip() for p in m.group(2).split(",")) if m.group(2).strip() else ()
                schemas.append(Schema(m.group(1), params, parse_formula(body)))
            elif line.startswith("prefer "):
                m = re.fullmatch(r"prefer\s+(\S+)\s*>\s*(\S+)", line)
                if not m:
                    fail("bad prefer line", lineno)
                edges.append((m.group(1), m.group(2)))
            elif line.startswith("fix "):
                head, _, body = line[len("fix "):].partition(":")
                label = head.strip()
                if not LABEL_RE.fullmatch(label):
                    fail(f"bad fixture label {label!r}", lineno)
                fixtures.append(LabeledFormula(label, parse_formula(body)))
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
    universe = explicit_atoms
    if universe is None:
        universe = formula_atoms(*base, *(f for _, f in (*defaults, *fixtures)))
    return Theory(
        universe=universe,
        base=tuple(base),
        defaults=tuple(defaults),
        priority=PriorityOrder(tuple(d.label for d in defaults), frozenset(edges)),
        fixtures=tuple(fixtures),
    )


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
    if atoms is None:
        atoms = formula_atoms(*base_f, *(f for _, f in (*defaults_f, *fixtures_f)))
    return Theory(
        universe=tuple(atoms),
        base=base_f,
        defaults=defaults_f,
        priority=PriorityOrder(tuple(d.label for d in defaults_f), frozenset(prefer)),
        fixtures=fixtures_f,
    )


def _sorted_edges(t: Theory) -> list[tuple[str, str]]:
    pos = {l: k for k, l in enumerate(t.priority.indices)}
    return sorted(t.priority.edges, key=lambda e: (pos[e[0]], pos[e[1]]))


def print_theory(t: Theory) -> str:
    """Theory file text that parses back to an equal Theory."""
    lines = [f"atoms: {' '.join(t.universe)}"] if t.universe else ["atoms:"]
    lines += [f"base: {to_text(f)}" for f in t.base]
    lines += [f"default {l}: {to_text(f)}" for l, f in t.defaults]
    lines += [f"prefer {a} > {b}" for a, b in _sorted_edges(t)]
    lines += [f"fix {l}: {to_text(f)}" for l, f in t.fixtures]
    return "\n".join(lines) + "\n"


def theory_to_json(t: Theory) -> str:
    doc = {
        "universe": list(t.universe),
        "base": [to_text(f) for f in t.base],
        "defaults": [{"label": l, "formula": to_text(f)} for l, f in t.defaults],
        "edges": [list(e) for e in _sorted_edges(t)],
        "fixtures": [{"label": l, "formula": to_text(f)} for l, f in t.fixtures],
    }
    return json.dumps(doc, indent=2)


def classify_order(order: PriorityOrder) -> str:
    """Shape of the priority order: parallel, chain/columnar, layered, general."""
    if order.is_empty:
        return "parallel"
    closure = order.closure
    cover = {
        (j, i)
        for (j, i) in closure
        if not any((j, k) in closure and (k, i) in closure for k in order.indices)
    }
    parents: dict[str, int] = {i: 0 for i in order.indices}
    children: dict[str, int] = {i: 0 for i in order.indices}
    for j, i in cover:
        children[j] += 1
        parents[i] += 1
    if all(parents[x] <= 1 and children[x] <= 1 for x in order.indices):
        return "chain/columnar"
    doms = order.dominators_map
    level: dict[str, int] = {}

    def rank(x: str) -> int:
        if x not in level:
            level[x] = 0 if not doms[x] else 1 + max(rank(j) for j in doms[x])
        return level[x]

    for x in order.indices:
        rank(x)
    layered = all(
        ((j, i) in closure) == (level[j] < level[i])
        for j in order.indices
        for i in order.indices
        if j != i
    )
    return "layered" if layered else "general"
