"""Theory files, priority orders, grounding, and the fixture reduction."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from generate import random_theory
from helpers import (
    classify_order_naive,
    ground_naive,
    lifted_edges_naive,
    order_masks_by_kahn,
    preferred_indices_naive,
    transitive_closure_naive,
)
from parapri.circumscription import circ_equivalent, preferred_models
from parapri.config import TRANSFORM_FORMULAS
from parapri.errors import CycleError, ParseError, ValidationError
from parapri.formula import Atom, atoms
from parapri.theory import (
    LabeledFormula,
    PriorityOrder,
    SchemaTheory,
    Theory,
    build_theory,
    classify_order,
    fixtures_to_defaults,
    ground,
    parse_theory,
    print_theory,
    transitive_closure,
)
from parapri.transform import output_size, transform_theory

TWEETY = """\
# two defaults, the specific one wins
base: ostrich -> bird
base: ostrich
default e1: bird -> flies
default e2: ostrich -> ~flies
prefer e2 > e1
"""


class TestTransitiveClosure:
    def test_chain(self):
        assert transitive_closure({("1", "2"), ("2", "3")}) == {("1", "2"), ("2", "3"), ("1", "3")}

    def test_empty(self):
        assert transitive_closure(set()) == frozenset()

    def test_two_cycle(self):
        with pytest.raises(CycleError):
            transitive_closure({("1", "2"), ("2", "1")})

    def test_self_loop(self):
        with pytest.raises(CycleError):
            transitive_closure({("1", "1")})


class TestParseTheory:
    def test_tweety_file(self):
        t = parse_theory(TWEETY)
        assert isinstance(t, Theory)
        assert len(t.defaults) == 2
        assert t.priority.closure == {("e2", "e1")}
        assert t.universe == ("ostrich", "bird", "flies")

    def test_priority_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_theory("default a: p\ndefault b: q\nprefer a > b\nprefer b > a\n")

    def test_no_prefer_lines_mean_parallel(self):
        t = parse_theory("default a: p\ndefault b: q\n")
        assert t.priority.is_empty

    def test_duplicate_label(self):
        with pytest.raises(ValidationError):
            parse_theory("default a: p\ndefault a: q\n")

    def test_undeclared_prefer_index(self):
        with pytest.raises(ValidationError):
            parse_theory("default a: p\nprefer a > b\n")

    def test_atom_outside_explicit_universe(self):
        with pytest.raises(ValidationError):
            parse_theory("atoms: p\ndefault a: q\n")

    def test_explicit_universe_may_add_unmentioned_atoms(self):
        t = parse_theory("atoms: p q\ndefault a: p\n")
        assert t.universe == ("p", "q")

    @pytest.mark.parametrize("name", ["true", "false", "~p", "p&q", "p(a,"])
    def test_atoms_line_takes_atoms_only(self, name):
        # ``true`` would be an atom that no formula can name
        with pytest.raises(ParseError, match=rf"^bad atom name {re.escape(repr(name))} \(line 2\)$"):
            parse_theory(f"# vocabulary\natoms: {name} p\ndefault d: ~p\n")

    def test_atoms_line_reads_atoms_as_formulas_do(self):
        t = parse_theory("atoms: q(a,b) p\ndefault d: p | q(a, b)\n")
        assert t.universe == ("q(a,b)", "p")
        assert t.defaults[0].formula.right == Atom("q(a,b)")

    def test_chained_prefer_line_names_the_rule(self):
        text = "default a: p\ndefault b: q\ndefault c: r\nprefer a > b > c\n"
        with pytest.raises(ParseError, match=r"^bad prefer line, expected 'prefer <label> > <label>' \(line 4\)$"):
            parse_theory(text)

    def test_duplicate_domain_constant_carries_line(self):
        with pytest.raises(ParseError, match="duplicate domain constant 'a'") as e:
            parse_theory("# constants\ndomain: a b a\n")
        assert e.value.line == 2

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as e:
            parse_theory("default a: p\nbogus line\n")
        assert e.value.line == 2

    def test_bad_formula_carries_line(self):
        with pytest.raises(ParseError) as e:
            parse_theory("base: p &\n")
        assert e.value.line == 1

    def test_bad_token_file(self):
        with pytest.raises(ParseError, match=r"^unknown token '\?' \(at byte offset 12\) \(line 3\)$") as e:
            parse_theory((DATA / "bad_token.thy").read_text())
        assert (e.value.offset, e.value.line) == (None, 3)

    def test_atoms_are_shared_and_in_first_mention_order(self):
        t = parse_theory("base: b -> a\ndefault d1: a & c\ndefault d2: ~c\nfix f: d | b\n")
        assert t.universe == ("b", "a", "c", "d")
        leaves = [t.base[0].left, t.base[0].right, t.defaults[0].formula.left, t.fixtures[0].formula.right]
        assert [g.name for g in leaves] == ["b", "a", "a", "b"]
        assert leaves[0] is leaves[3] and leaves[1] is leaves[2]

    @pytest.mark.parametrize(
        "lines",
        [
            ["default d: x & y", "base: y & z"],
            ["fix f: w", "default d: x", "base: y"],
            ["base: y", "fix f: w", "default d: x & w"],
        ],
        ids=["base-after-default", "reversed", "default-after-fix"],
    )
    def test_universe_follows_base_defaults_fixtures_whatever_the_line_order(self, lines):
        t = parse_theory("\n".join(lines) + "\n")
        assert t.universe == atoms(*t.base, *(f for _, f in (*t.defaults, *t.fixtures)))
        with pytest.raises(ValidationError, match=f"^atom {t.universe[1]!r} not in declared universe$"):
            parse_theory("\n".join([f"atoms: {t.universe[0]}", *lines]) + "\n")

    def test_round_trip(self):
        t = parse_theory(TWEETY)
        assert parse_theory(print_theory(t)) == t

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(25):
            t = random_theory(rng, fixture_prob=0.5)
            assert parse_theory(print_theory(t)) == t


class TestGround:
    def test_single_constant(self):
        s = parse_theory("domain: tweety\nschema d[X]: bird(X) -> flies(X)\n")
        assert isinstance(s, SchemaTheory)
        t = ground(s)
        assert t.default_labels == ("d[tweety]",)
        assert str(t.defaults[0].formula) == "(bird(tweety) -> flies(tweety))"

    def test_two_constants_parallel(self):
        t = ground(parse_theory("domain: a b\nschema d[X]: bird(X) -> flies(X)\n"))
        assert len(t.defaults) == 2
        assert t.priority.is_empty
        # grounding must mean the same as writing the instances by hand
        by_hand = build_theory(
            atoms=t.universe,
            defaults=[("i1", "bird(a) -> flies(a)"), ("i2", "bird(b) -> flies(b)")],
        )
        assert circ_equivalent(t, by_hand, project=t.universe)

    def test_priority_lifted_to_all_instance_pairs(self):
        t = ground(
            parse_theory(
                "domain: a b\n"
                "schema e1[X]: p(X)\n"
                "schema e2[X]: q(X)\n"
                "prefer e2 > e1\n"
            )
        )
        assert len(t.defaults) == 4
        assert t.priority.closure == {
            ("e2[a]", "e1[a]"),
            ("e2[a]", "e1[b]"),
            ("e2[b]", "e1[a]"),
            ("e2[b]", "e1[b]"),
        }
        by_hand = build_theory(
            atoms=t.universe,
            defaults=[
                ("e1a", "p(a)"), ("e1b", "p(b)"),
                ("e2a", "q(a)"), ("e2b", "q(b)"),
            ],
            prefer=[
                ("e2a", "e1a"), ("e2a", "e1b"), ("e2b", "e1a"), ("e2b", "e1b"),
            ],
        )
        assert circ_equivalent(t, by_hand, project=t.universe)

    def test_size_law(self):
        t = ground(
            parse_theory(
                "domain: a b c\n"
                "schema u[X]: p(X)\n"
                "schema v[X,Y]: r(X,Y)\n"
            )
        )
        assert len(t.defaults) == 3 ** 1 + 3 ** 2

    def test_plain_defaults_survive_grounding(self):
        t = ground(parse_theory("domain: a\ndefault d0: s\nschema d[X]: p(X)\nprefer d0 > d\n"))
        assert t.default_labels == ("d0", "d[a]")
        assert t.priority.closure == {("d0", "d[a]")}

    def test_repeated_parameter_rejected(self):
        with pytest.raises(ValidationError, match="schema 's' repeats parameter 'X'"):
            parse_theory("domain: a b\nschema s[X,X]: p(X)\n")

    def test_empty_domain_with_schema_rejected(self):
        with pytest.raises(ValidationError):
            parse_theory("domain:\nschema d[X]: p(X)\n")

    def test_free_variable_rejected(self):
        with pytest.raises(ValidationError):
            parse_theory("domain: a\nschema d[X]: p(X) & q(Y)\n")

    def test_explicit_atoms_with_domain_rejected(self):
        with pytest.raises(ValidationError):
            parse_theory("atoms: p\ndomain: a\nschema d[X]: p\n")


class TestFixturesToDefaults:
    def test_pair_appended_without_edges(self):
        t = build_theory(defaults=[("d", "q")], fixtures=[("f", "p")])
        r = fixtures_to_defaults(t)
        assert r.fixtures == ()
        assert [l for l, _ in r.defaults] == ["d", "fix_f", "nfix_f"]
        assert str(r.defaults[1].formula) == "p"
        assert str(r.defaults[2].formula) == "~p"
        assert r.priority.closure == t.priority.closure

    def test_no_fixtures_is_identity(self):
        t = build_theory(defaults=[("d", "q")])
        assert fixtures_to_defaults(t) == t

    def test_preserves_preferred_models_on_tweety(self):
        t = build_theory(
            base=["ostrich -> bird", "ostrich"],
            defaults=[("e1", "bird -> flies"), ("e2", "ostrich -> ~flies")],
            prefer=[("e2", "e1")],
            fixtures=[("f", "bird")],
        )
        assert preferred_models(t).index_set == preferred_models(fixtures_to_defaults(t)).index_set

    def test_preserves_preferred_models_randomly(self):
        rng = random.Random(11)
        for _ in range(40):
            t = random_theory(rng, fixtures=rng.randint(1, 2))
            r = fixtures_to_defaults(t)
            assert preferred_indices_naive(t) == preferred_indices_naive(r)
            assert preferred_models(t).index_set == preferred_models(r).index_set

    def test_label_clash_rejected(self):
        t = build_theory(defaults=[("fix_f", "q")], fixtures=[("f", "p")])
        with pytest.raises(ValidationError):
            fixtures_to_defaults(t)


class TestClassifyOrder:
    def test_parallel(self):
        assert classify_order(PriorityOrder(("a", "b"), frozenset())) == "parallel"

    def test_chain(self):
        order = PriorityOrder(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
        assert classify_order(order) == "chain/columnar"

    def test_two_columns(self):
        order = PriorityOrder(("a", "b", "c", "d"), frozenset({("a", "b"), ("c", "d")}))
        assert classify_order(order) == "chain/columnar"

    def test_layered_two_by_two(self):
        order = PriorityOrder(
            ("a", "b", "c", "d"),
            frozenset({("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}),
        )
        assert classify_order(order) == "layered"

    def test_general(self):
        # one element of the top layer does not dominate d: neither columnar nor layered
        order = PriorityOrder(
            ("a", "b", "c", "d"),
            frozenset({("a", "c"), ("a", "d"), ("b", "c")}),
        )
        assert classify_order(order) == "general"


class TestPriorityOrder:
    def test_undeclared_endpoint(self):
        with pytest.raises(ValidationError):
            PriorityOrder(("a",), frozenset({("a", "b")}))

    def test_labels_must_match_defaults(self):
        with pytest.raises(ValidationError):
            Theory(
                universe=("p",),
                base=(),
                defaults=(LabeledFormula("a", Atom("p")),),
                priority=PriorityOrder(("b",), frozenset()),
            )

    def test_checks_in_order(self):
        # duplicate labels before undeclared endpoints, and those before cycles
        with pytest.raises(ValidationError, match="^duplicate label in priority order$"):
            PriorityOrder(("a", "a"), [("b", "a")])
        with pytest.raises(ValidationError, match="^undeclared index 'c' in priority order$"):
            PriorityOrder(("a", "b"), [("a", "b"), ("b", "a"), ("d", "a"), ("c", "a")])

    def test_closed_rejects_a_duplicate_label(self):
        with pytest.raises(ValidationError, match="^duplicate label in priority order$"):
            PriorityOrder._closed(("a", "b", "a"), (0, 1, 0))


NAMES = ("m", "c", "x", "a", "k", "b", "z", "e", "q", "g")


@st.composite
def relations(draw):
    """Labels in a shuffled order and a list of (higher, lower) edges over
    them; duplicate edges, self-loops, cycles and isolated labels all occur."""
    labels = tuple(draw(st.permutations(NAMES)))[: draw(st.integers(1, len(NAMES)))]
    n = len(labels)
    shape = draw(st.sampled_from(("any", "acyclic", "layers")))
    if shape == "layers":  # consecutive levels fully joined, less up to two edges
        level = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        edges = [(a, b) for a in range(n) for b in range(n) if level[b] == level[a] + 1]
        for k in draw(st.lists(st.integers(0, 99), max_size=2)):
            if edges:
                edges.pop(k % len(edges))
    else:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        if shape == "acyclic":  # edges follow a random ranking of the labels
            rank = draw(st.permutations(range(n)))
            pairs = pairs.filter(lambda p: rank[p[0]] < rank[p[1]])
        edges = draw(st.lists(pairs, max_size=3 * n))
    return labels, [(labels[a], labels[b]) for a, b in edges]


@st.composite
def schema_texts(draw):
    """Schema theories over domains of 2-6 constants: schemas of arity 0-2,
    plain defaults and priority edges between any two of their labels."""
    lines = ["domain: " + " ".join(f"c{k}" for k in range(draw(st.integers(2, 6))))]
    labels = []
    for k in range(draw(st.integers(1, 3))):
        params = ["X", "Y"][: draw(st.integers(0, 2))]
        lines.append(f"schema s{k}[{','.join(params)}]: p{k}({','.join(params)})" if params else f"schema s{k}[]: p{k}")
        labels.append(f"s{k}")
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"default d{k}: q{k}")
        labels.append(f"d{k}")
    k = st.integers(0, len(labels) - 1)
    pairs = st.tuples(k, k)
    if draw(st.booleans()):  # acyclic, as in relations()
        rank = draw(st.permutations(range(len(labels))))
        pairs = pairs.filter(lambda p: rank[p[0]] < rank[p[1]])
    edges = [(labels[a], labels[b]) for a, b in draw(st.lists(pairs, max_size=5))]
    lines += [f"prefer {a} > {b}" for a, b in edges]
    return "\n".join(lines) + "\n", edges


def check_order_against_oracles(labels, edges, order=None):
    """The order built from ``labels`` and ``edges`` (or ``order``, when
    given, which must be theirs) against the fixpoint closure of ``edges``."""
    try:
        want = transitive_closure_naive(edges)
    except CycleError as e:
        with pytest.raises(CycleError) as got:
            transitive_closure(edges)
        assert str(got.value) == str(e)
        with pytest.raises(CycleError) as got:
            PriorityOrder(labels, frozenset(edges))
        assert str(got.value) == str(e)
        return
    assert transitive_closure(edges) == want
    if order is None:
        order = PriorityOrder(labels, frozenset(edges))
    assert order.indices == tuple(labels)
    assert order.position == {x: k for k, x in enumerate(labels)}
    assert order.closure == want
    doms = {i: frozenset(j for j, k in want if k == i) for i in labels}
    assert order.above == tuple(sum(1 << order.position[j] for j in doms[i]) for i in labels)
    assert order.dominators_map == doms
    report = output_size(order)
    assert report.m == tuple((i, len(doms[i])) for i in labels)
    assert report.total == sum(1 << len(doms[i]) for i in labels)
    assert classify_order(order) == classify_order_naive(labels, edges)


class TestOrderDifferential:
    """The bitmask order against the fixpoint closure and the cubic cover scan."""

    @given(relations())
    @settings(max_examples=400, deadline=None)
    def test_random_relations(self, relation):
        check_order_against_oracles(*relation)

    @given(schema_texts())
    @settings(max_examples=100, deadline=None)
    def test_grounded_schema_theories(self, schema):
        text, edges = schema
        try:
            transitive_closure_naive(edges)
        except CycleError as e:
            with pytest.raises(CycleError) as got:
                parse_theory(text)
            assert str(got.value) == str(e)
            return
        s = parse_theory(text)
        order = ground(s).priority
        check_order_against_oracles(order.indices, lifted_edges_naive(s), order)

    @given(relations())
    @settings(max_examples=200, deadline=None)
    def test_equal_closures_are_equal_orders(self, relation):
        # entered as drawn, as the cover pairs and as the closure: one order,
        # one hash and one printed form
        labels, edges = relation
        try:
            closure = transitive_closure_naive(edges)
        except CycleError:
            assume(False)
        cover = [(j, i) for j, i in closure if not any((j, k) in closure and (k, i) in closure for k in labels)]
        first, *rest = [build_theory(defaults=[(l, "p") for l in labels], prefer=e) for e in (edges, cover, closure)]
        for t in rest:
            assert t.priority == first.priority and hash(t.priority) == hash(first.priority)
            assert print_theory(t) == print_theory(first)

    def test_matches_the_topological_pass(self):
        # Masks and cycle errors against Kahn's pass with Warshall's cycle search.
        rng = random.Random(23)
        cycles = 0
        for _ in range(20000):
            labels = tuple(rng.sample(NAMES, rng.randint(1, len(NAMES))))
            edges = [(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(0, 10))]
            position = {x: k for k, x in enumerate(labels)}
            try:
                want = tuple(order_masks_by_kahn(labels, [(position[a], position[b]) for a, b in edges]))
            except CycleError as e:
                cycles += 1
                with pytest.raises(CycleError, match=f"^{re.escape(str(e))}$"):
                    PriorityOrder(labels, edges)
                continue
            assert PriorityOrder(labels, edges).above == want
        assert 0 < cycles < 20000

    def test_cycle_names_the_least_label_on_a_cycle(self):
        # "a" sits below the cycle, not on it
        edges = [("z", "y"), ("y", "z"), ("y", "a"), ("q", "z")]
        for build in (lambda: transitive_closure(edges), lambda: PriorityOrder(("q", "z", "y", "a"), frozenset(edges))):
            with pytest.raises(CycleError, match="priority cycle through 'y'"):
                build()


def schema_formula_texts(params, domain):
    """Formula text over atoms with constant arguments (``p(X,k0)``),
    repeated variables (``q(X,X)``), bare variables, a propositional
    atom and the constants, drawn from a small pool so that one atom often
    occurs twice, under ``~``, ``->``, ``<->``, ``&`` and ``|``."""
    terms = [*params, *domain[:2]]
    atom = st.one_of(
        st.tuples(st.sampled_from("pq"), st.lists(st.sampled_from(terms), min_size=1, max_size=3)).map(
            lambda t: f"{t[0]}{len(t[1])}({','.join(t[1])})"
        ),
        st.sampled_from([*params, "r", "true", "false"]),
    )
    return st.lists(atom, min_size=1, max_size=3).flatmap(
        lambda pool: st.recursive(
            st.sampled_from(pool),
            lambda sub: st.one_of(
                sub.map(lambda f: f"~{f}"),
                st.tuples(sub, st.sampled_from(["->", "<->", "&", "|"]), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            ),
            max_leaves=6,
        )
    )


@st.composite
def grounding_texts(draw):
    """Schema theories of up to three schemas of arity 0-2 over 1-3
    constants, with a plain default, a base, a fixture and edges that
    follow the order of the labels."""
    domain = [f"k{j}" for j in range(draw(st.integers(1, 3)))]
    lines = [f"domain: {' '.join(domain)}", "base: r | p1(k0)", "default d: ~r", "fix f: q1(k0)"]
    labels = ["d"]
    for k in range(draw(st.integers(1, 3))):
        params = ["X", "Y"][: draw(st.integers(0, 2))]
        lines.append(f"schema s{k}[{','.join(params)}]: {draw(schema_formula_texts(params, domain))}")
        labels.append(f"s{k}")
    pairs = st.tuples(st.integers(0, len(labels) - 1), st.integers(0, len(labels) - 1))
    for a, b in draw(st.lists(pairs.filter(lambda p: p[0] < p[1]), max_size=4)):
        lines.append(f"prefer {labels[a]} > {labels[b]}")
    return "\n".join(lines) + "\n"


class TestGroundDifferential:
    """``ground`` against recursive substitution under ``match``."""

    @given(grounding_texts())
    @settings(max_examples=300, deadline=None)
    def test_defaults_universe_and_text(self, text):
        s = parse_theory(text)
        t, want = ground(s), ground_naive(s)
        assert t.defaults == want.defaults
        assert t.universe == want.universe
        assert print_theory(t) == print_theory(want)
        assert t.priority.above == want.priority.above
        doms = t.priority.dominators_map
        for schema in s.schemas:
            first, *rest = [l for l in t.default_labels if l.split("[")[0] == schema.label]
            assert all(doms[l] is doms[first] for l in rest)

    def test_constant_and_repeated_arguments(self):
        s = parse_theory("domain: a b\nschema s[X]: p(X,a) -> ~(q(X,X) <-> X)\n")
        t = ground(s)
        assert print_theory(t) == print_theory(ground_naive(s))
        assert [str(f) for _, f in t.defaults] == [
            "(p(a,a) -> ~(q(a,a) <-> a))",
            "(p(b,a) -> ~(q(b,b) <-> b))",
        ]
        assert t.universe == ("p(a,a)", "q(a,a)", "a", "p(b,a)", "q(b,b)", "b")


DATA = Path(__file__).parent / "data"
# cyclic.thy and bad_token.thy are rejected before any Theory is built.
THEORY_FILES = sorted(set(DATA.glob("*.thy")) - {DATA / "cyclic.thy", DATA / "bad_token.thy"})


class TestPrintedForm:
    """``print_theory`` writes the order as its closure pairs, which load
    back to an equal order."""

    @pytest.mark.parametrize("path", THEORY_FILES, ids=lambda p: p.name)
    def test_data_files_round_trip(self, path):
        x = parse_theory(path.read_text())
        t = ground(x) if isinstance(x, SchemaTheory) else x
        assert parse_theory(print_theory(t)) == t

    def test_fixture_reduction_round_trips(self):
        t = fixtures_to_defaults(parse_theory((DATA / "fixed_bird.thy").read_text()))
        assert t.priority.closure and t.default_labels[-2:] == ("fix_f1", "nfix_f1")
        assert parse_theory(print_theory(t)) == t


def assert_checked_constructor_agrees(x: Theory) -> None:
    """``x`` and its transform, rebuilt by the constructor that walks every
    formula's atoms, are accepted and equal."""
    for t in (x, transform_theory(x)):
        assert Theory(t.universe, t.base, t.defaults, t.priority, t.fixtures) == t


class TestKnownAtoms:
    """``parallel_theory``, ``ground``, and ``parse_theory`` and
    ``build_theory`` without a universe skip the atom walk: they must build
    only what the checked constructor accepts."""

    @pytest.mark.parametrize("path", THEORY_FILES, ids=lambda p: p.name)
    def test_data_files(self, path):
        x = parse_theory(path.read_text())
        assert_checked_constructor_agrees(ground(x) if isinstance(x, SchemaTheory) else x)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_theories_without_a_universe(self, rng):
        t = random_theory(rng, fixture_prob=0.5)
        text = print_theory(t).split("\n", 1)[1]  # no atoms: line
        built = build_theory(base=t.base, defaults=t.defaults, prefer=t.priority.closure, fixtures=t.fixtures)
        assert parse_theory(text) == built
        assert_checked_constructor_agrees(built)

    @given(grounding_texts())
    @settings(max_examples=100, deadline=None)
    def test_grounded_theories(self, text):
        x = ground(parse_theory(text))
        # The library refuses a transform above the cap, so such a draw has nothing to compare.
        assume(output_size(x.priority).total <= TRANSFORM_FORMULAS)
        assert_checked_constructor_agrees(x)

    def test_empty_atoms_line_is_still_checked(self):
        with pytest.raises(ValidationError, match="^atom 'q' not in declared universe$"):
            parse_theory("atoms:\ndefault a: q\n")
        with pytest.raises(ValidationError, match="^atom 'q' not in declared universe$"):
            build_theory(atoms=(), defaults=[("a", "q")])

    @pytest.mark.parametrize(
        "text",
        ["default d: p\nfix f: p\nfix f: q\n", "domain: a\nschema s[X]: p(X)\nfix f: p(a)\nfix f: q\n"],
        ids=["plain", "schema"],
    )
    def test_duplicate_fixture_label(self, text):
        with pytest.raises(ValidationError, match="^duplicate fixture label$"):
            x = parse_theory(text)
            if isinstance(x, SchemaTheory):
                ground(x)
