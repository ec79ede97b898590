"""The priority-elimination construction and its size accounting."""

import copy
import dataclasses
import itertools
import operator
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generate import random_theory
from helpers import (
    ac_set,
    build_wil,
    chain_theory,
    closure_pairs,
    descending_naive,
    fixtures_to_defaults,
    labels_and_provenance_eagerly,
    preferred_indices_naive,
)
import parapri.theory
from parapri import config
from parapri.circumscription import cell_columns, preferred_models, preorder_equivalent, skeptical_entails
from parapri.cli import _corrupt, main
from parapri.errors import CapExceededError, ValidationError
from parapri.formula import And, Atom, Or, iter_bits, parse_formula, truth_mask
from parapri.theory import (
    LabeledFormula,
    PriorityOrder,
    build_theory,
    parse_theory,
    print_theory,
)
from parapri.transform import (
    TransformOutput,
    _iter_descending,
    _sigma_combinations,
    output_size,
    parallel_theory,
    transform_all,
    transform_canonical,
)

F = parse_formula
DATA = Path(__file__).parent / "data"


def descending_sequences(order, label):
    """The descending orderings of ``label``'s dominators, as the transform
    enumerates them, with positions mapped back to labels."""
    sequences = _iter_descending(order, order.above[order.position[label]])
    return [tuple(order.indices[j] for j in sigma) for sigma in sequences]


def pair_theory():
    return build_theory(defaults=[("d1", "p1"), ("d2", "p2")], prefer=[("d1", "d2")])


def columns_theory():
    return build_theory(
        defaults=[("d1", "p1"), ("d2", "p2"), ("d3", "p3"), ("d4", "p4")],
        prefer=[("d1", "d2"), ("d3", "d4")],
    )


def fan_out_theory():
    return build_theory(
        defaults=[("d1", "p1"), ("d2", "p2"), ("d3", "p3")],
        prefer=[("d1", "d2"), ("d1", "d3")],
    )


def fan_in_theory():
    return build_theory(
        defaults=[("d1", "p1"), ("d2", "p2"), ("d3", "p3")],
        prefer=[("d1", "d3"), ("d2", "d3")],
    )


class TestDominators:
    def test_chain_bottom(self):
        t = chain_theory(3)
        assert t.priority.dominators_map["d3"] == {"d1", "d2"}

    def test_empty_order(self):
        order = PriorityOrder(("a", "b"))
        assert order.dominators_map["a"] == frozenset()

    def test_fan_in(self):
        t = fan_in_theory()
        assert t.priority.dominators_map["d3"] == {"d1", "d2"}
        assert t.priority.dominators_map["d1"] == frozenset()


class TestDescendingSequences:
    def test_chain_unique(self):
        t = chain_theory(3)
        assert descending_sequences(t.priority, "d3") == [("d1", "d2")]

    def test_fan_in_two_alternatives(self):
        t = fan_in_theory()
        assert descending_sequences(t.priority, "d3") == [("d1", "d2"), ("d2", "d1")]

    def test_no_dominators(self):
        t = chain_theory(2)
        assert descending_sequences(t.priority, "d1") == [()]

    def test_long_chain_needs_no_recursion(self):
        labels = tuple(f"d{k}" for k in range(1500))
        order = PriorityOrder(labels, frozenset(zip(labels, labels[1:])))
        assert descending_sequences(order, labels[-1]) == [labels[:-1]]

    def test_descending_property(self):
        rng = random.Random(2)
        for _ in range(20):
            t = random_theory(rng, max_defaults=4)
            for label in t.priority.indices:
                for sigma in descending_sequences(t.priority, label):
                    for a in range(len(sigma)):
                        for b in range(a + 1, len(sigma)):
                            assert (sigma[b], sigma[a]) not in closure_pairs(t.priority)


class TestBuildWil:
    """``helpers.build_wil``, the separate nest each output must equal."""

    formulas = {"d1": Atom("a"), "d2": Atom("b"), "d3": Atom("c")}

    def test_conjunctive_pair(self):
        assert build_wil(self.formulas, "d2", ("d1",), "1") == And(Atom("a"), Atom("b"))

    def test_disjunctive_pair(self):
        assert build_wil(self.formulas, "d2", ("d1",), "0") == Or(Atom("a"), Atom("b"))

    def test_mixed_bits_nest_to_the_right(self):
        f = build_wil(self.formulas, "d3", ("d1", "d2"), "01")
        assert f == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_no_dominators_returns_the_default(self):
        assert build_wil(self.formulas, "d1", (), "") == Atom("a")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_wil(self.formulas, "d3", ("d1", "d2"), "1")


class TestGoldenSets:
    """The five standard shapes, compared up to commutative reordering."""

    def golden(self, theory, expected_texts):
        out = transform_canonical(theory.defaults, theory.priority)
        assert ac_set(f for _, f in out.defaults) == ac_set(F(s) for s in expected_texts)

    def test_pair(self):
        self.golden(pair_theory(), ["p1", "p2 & p1", "p2 | p1"])

    def test_two_columns_of_two(self):
        self.golden(
            columns_theory(),
            ["p1", "p2 & p1", "p2 | p1", "p3", "p4 & p3", "p4 | p3"],
        )

    def test_one_above_two(self):
        self.golden(
            fan_out_theory(),
            ["p1", "p2 & p1", "p2 | p1", "p3 & p1", "p3 | p1"],
        )

    def test_chain_of_three(self):
        self.golden(
            chain_theory(3),
            [
                "p1",
                "p2 & p1", "p2 | p1",
                "p3 & p2 & p1", "(p3 & p2) | p1", "(p3 | p2) & p1", "p3 | p2 | p1",
            ],
        )

    def test_fan_in_both_alternatives(self):
        t = fan_in_theory()
        members = transform_all(t.defaults, t.priority, limit=8)
        assert len(members) == 2
        first = ["p1", "p2", "p3 & p2 & p1", "(p3 & p2) | p1", "(p3 | p2) & p1", "p3 | p2 | p1"]
        second = ["p1", "p2", "p3 & p1 & p2", "(p3 & p1) | p2", "(p3 | p1) & p2", "p3 | p1 | p2"]
        assert ac_set(f for _, f in members[0].defaults) == ac_set(F(s) for s in first)
        assert ac_set(f for _, f in members[1].defaults) == ac_set(F(s) for s in second)
        # the two alternatives differ syntactically before normalization
        assert [str(f) for _, f in members[0].defaults] != [str(f) for _, f in members[1].defaults]

    def test_empty_order_echoes_input(self):
        t = build_theory(defaults=[("a", "p"), ("b", "q | r")])
        out = transform_canonical(t.defaults, t.priority)
        assert [f for _, f in out.defaults] == [f for _, f in t.defaults]

    def test_labels_and_provenance(self):
        out = transform_canonical(*_pair())
        assert [l for l, _ in out.defaults] == ["w_d1", "w_d2_1", "w_d2_0"]
        assert [p.bits for p in out.provenance] == ["", "1", "0"]
        assert [p.source for p in out.provenance] == ["d1", "d2", "d2"]


def _pair():
    t = pair_theory()
    return t.defaults, t.priority


class TestOutputSize:
    def test_chain_of_three(self):
        assert output_size(chain_theory(3).priority).total == 7

    def test_columns(self):
        assert output_size(columns_theory().priority).total == 6

    def test_empty_order(self):
        assert output_size(PriorityOrder(tuple("abcde"))).total == 5

    def test_chain_closed_form(self):
        for n in range(1, 11):
            t = chain_theory(n)
            report = output_size(t.priority)
            assert report.total == 2 ** n - 1
            out = transform_canonical(t.defaults, t.priority)
            assert len(out.defaults) == report.total

    def test_top_heavy_flag(self):
        assert not output_size(chain_theory(5).priority).top_heavy
        assert output_size(chain_theory(12).priority).top_heavy

    def test_materialization_guard(self, monkeypatch):
        t = chain_theory(12)
        monkeypatch.setattr(config, "TRANSFORM_FORMULAS", 1000)
        with pytest.raises(CapExceededError):
            transform_canonical(t.defaults, t.priority)
        # size accounting itself never materializes
        assert output_size(t.priority).total == 2 ** 12 - 1


class TestTransformAll:
    def test_chain_has_a_unique_member(self):
        t = chain_theory(3)
        assert len(transform_all(t.defaults, t.priority, limit=64)) == 1

    def test_empty_order_single_member(self):
        t = build_theory(defaults=[("a", "p")])
        members = transform_all(t.defaults, t.priority, limit=64)
        assert len(members) == 1
        assert [f for _, f in members[0].defaults] == [F("p")]

    def test_first_member_is_canonical(self):
        rng = random.Random(21)
        for _ in range(20):
            t = random_theory(rng)
            members = transform_all(t.defaults, t.priority, limit=4)
            assert members[0] == transform_canonical(t.defaults, t.priority)

    def test_order_over_other_labels(self):
        t = chain_theory(2)
        order = PriorityOrder(("d1", "d3"), [("d1", "d3")])
        for transform in (transform_canonical, lambda defaults, o: transform_all(defaults, o, limit=4)):
            with pytest.raises(ValidationError, match="^defaults and priority order disagree on labels$"):
                transform(t.defaults, order)

    def test_zero_limit_rejected(self):
        t = chain_theory(2)
        with pytest.raises(ValidationError):
            transform_all(t.defaults, t.priority, limit=0)

    def test_limit_respected(self):
        t = build_theory(
            defaults=[(l, l) for l in ("a", "b", "c", "x")],
            prefer=[("a", "x"), ("b", "x"), ("c", "x")],
        )
        assert len(transform_all(t.defaults, t.priority, limit=64)) == 6
        assert len(transform_all(t.defaults, t.priority, limit=2)) == 2


class TestStructuralInvariants:
    def test_all_ones_and_all_zeros_blocks(self):
        rng = random.Random(31)
        for _ in range(20):
            t = random_theory(rng)
            out = transform_canonical(t.defaults, t.priority)
            formulas = dict(t.defaults)
            for (label, f), p in zip(out.defaults, out.provenance):
                if not p.bits:
                    continue
                group = [formulas[j] for j in p.sigma] + [formulas[p.source]]
                if set(p.bits) == {"1"}:
                    expected = group[-1]
                    for g in reversed(group[:-1]):
                        expected = And(g, expected)
                    assert f == expected
                if set(p.bits) == {"0"}:
                    expected = group[-1]
                    for g in reversed(group[:-1]):
                        expected = Or(g, expected)
                    assert f == expected

    def test_size_always_matches_report(self):
        rng = random.Random(41)
        for _ in range(30):
            t = random_theory(rng)
            out = transform_canonical(t.defaults, t.priority)
            assert len(out.defaults) == output_size(t.priority).total

    def test_bit_strings_enumerate_exactly_once(self):
        t = chain_theory(4)
        out = transform_canonical(t.defaults, t.priority)
        per_source = {}
        for p in out.provenance:
            per_source.setdefault(p.source, []).append(p.bits)
        for label, bits in per_source.items():
            m = len(bits[0])
            assert sorted(int(b, 2) if b else 0 for b in bits) == list(range(2 ** m if m else 1))

    def test_all_members_induce_the_same_preorder(self):
        rng = random.Random(51)
        for _ in range(15):
            t = random_theory(rng, max_atoms=4)
            members = transform_all(t.defaults, t.priority, limit=6)
            first = parallel_theory(t, members[0])
            for m in members[1:]:
                assert preorder_equivalent(first, parallel_theory(t, m), t.universe)


GOLDEN_THEORIES = [pair_theory, columns_theory, fan_out_theory, fan_in_theory, lambda: chain_theory(3)]


@st.composite
def ordered_defaults(draw):
    """Up to 8 defaults, some compound, and the pairs of a random acyclic
    order over their labels."""
    n = draw(st.integers(1, 8))
    texts = draw(st.lists(st.sampled_from(["p", "q", "p & q", "~p | r", "q -> r"]), min_size=n, max_size=n))
    labels = [f"d{k}" for k in range(n)]
    rank = draw(st.permutations(labels))
    edges = [(a, b) for i, a in enumerate(rank) for b in rank[i + 1 :] if draw(st.booleans())]
    return list(zip(labels, texts)), edges


@st.composite
def ordered_theories(draw):
    """``ordered_defaults`` with up to one base formula and two fixtures."""
    defaults, edges = draw(ordered_defaults())
    base = draw(st.lists(st.sampled_from(["p | q", "~r"]), max_size=1))
    fixtures = draw(st.lists(st.sampled_from(["q", "p & r", "~p"]), max_size=2))
    return build_theory(
        base=base, defaults=defaults, prefer=edges, fixtures=[(f"f{k}", f) for k, f in enumerate(fixtures)]
    )


class TestDescendingOracle:
    @given(ordered_defaults())
    @settings(max_examples=150, deadline=None)
    def test_sequences_match_recursive_generator(self, entered):
        # the same sequences in the same order, so the first is the canonical one
        defaults, edges = entered
        t = build_theory(defaults=defaults, prefer=edges)
        for label in t.priority.indices:
            assert descending_sequences(t.priority, label) == list(descending_naive(t.priority.indices, edges, label))


def hand_built(t, out):
    """build_wil's nest for each provenance of ``out``, as a hand-built
    output: its nest is the identity, so every route walks its formulas."""
    formulas = dict(t.defaults)
    nests = (build_wil(formulas, p.source, p.sigma, p.bits) for p in out.provenance)
    return TransformOutput(tuple(LabeledFormula(l, f) for (l, _), f in zip(out.defaults, nests)), out.provenance)


def assert_identity_nest(x):
    """``x`` holds no transform's nest: its nest is the identity, whose
    sources are ``x``'s own formulas, under its own labels, and whose every
    sigma is ()."""
    nest, formulas = x.nest, [f for _, f in x.defaults]
    assert nest.labels == nest.source_labels == tuple(l for l, _ in x.defaults)
    assert len(nest.sources) == len(formulas) and all(map(operator.is_, nest.sources, formulas))
    assert nest.sigmas == ((),) * len(formulas)


def assert_outputs_are_nests(t, out):
    """Each output equals, and prints like, build_wil's nest for its
    provenance. Through the transform's nest, the engine values and
    ``print_theory`` prints the outputs as the AST walks of hand-built
    outputs (whose nest is the identity) do."""
    unshared = hand_built(t, out)
    assert out.defaults == unshared.defaults
    via_nest, via_ast = parallel_theory(t, out), parallel_theory(t, unshared)
    assert via_nest.nest is out.nest
    assert_identity_nest(unshared)
    assert_identity_nest(via_ast)
    assert print_theory(via_nest) == print_theory(via_ast)
    assert parse_theory(print_theory(via_nest)) == via_nest
    assert preferred_models(via_nest).mask == preferred_models(via_ast).mask
    # Over the whole universe, each output's column through the nest covers
    # exactly its truth mask.
    cells, _, columns = cell_columns((), [via_nest.nest], t.universe)
    covered = [sum(cells[k] for k in iter_bits(c)) for c in columns]
    assert covered == [truth_mask(f, t.universe) for _, f in out.defaults]
    assert_block_masks(t, out)
    # Any other route to the same defaults drops the transform's nest.
    assert_identity_nest(TransformOutput(out.defaults, out.provenance))
    assert_identity_nest(dataclasses.replace(out))
    assert_identity_nest(dataclasses.replace(via_nest))
    assert_identity_nest(fixtures_to_defaults(via_nest))


class TestNestRoute:
    """The engine's three routes to one parallel theory's preferred models."""

    @given(ordered_theories())
    @settings(max_examples=100, deadline=None)
    def test_nest_route_matches_ast_route_and_naive(self, t):
        # General orders and fixtures: the nest route splits the base on the
        # sources and fixtures, the AST route on the outputs and fixtures.
        out = transform_canonical(t.defaults, t.priority)
        via_nest, via_ast = parallel_theory(t, out), parallel_theory(t, hand_built(t, out))
        assert via_nest.nest is out.nest
        assert_identity_nest(via_ast)
        mask = preferred_models(via_nest).mask
        assert mask == preferred_models(via_ast).mask
        assert mask == sum(1 << z for z in preferred_indices_naive(via_ast))


def blocks(out):
    """Source label -> {bits: output formula}."""
    by_source = {}
    for (_, f), p in zip(out.defaults, out.provenance):
        by_source.setdefault(p.source, {})[p.bits] = f
    return by_source


class TestSuffixSharing:
    """Each block is built innermost-first; it must equal the per-output nests."""

    @pytest.mark.parametrize("build", GOLDEN_THEORIES)
    def test_goldens_equal_per_output_nests(self, build):
        t = build()
        for out in [transform_canonical(t.defaults, t.priority), *transform_all(t.defaults, t.priority, limit=8)]:
            assert_outputs_are_nests(t, out)

    @given(ordered_theories())
    @settings(max_examples=60, deadline=None)
    def test_random_orders_equal_per_output_nests(self, t):
        assert_outputs_are_nests(t, transform_canonical(t.defaults, t.priority))
        for out in transform_all(t.defaults, t.priority, limit=6):
            assert_outputs_are_nests(t, out)

    @given(ordered_theories())
    @settings(max_examples=60, deadline=None)
    def test_block_builds_each_suffix_once(self, t):
        out = transform_canonical(t.defaults, t.priority)
        sources = {id(f) for _, f in t.defaults}
        for block in blocks(out).values():
            m = len(next(iter(block)))
            nodes = set()
            todo = list(block.values())
            while todo:
                g = todo.pop()
                if id(g) not in sources and id(g) not in nodes:
                    assert type(g) in (And, Or)
                    nodes.add(id(g))
                    todo += (g.left, g.right)
            assert len(nodes) == 2 ** (m + 1) - 2
            for bits, f in block.items():
                if bits.startswith("1"):
                    assert f.right is block["0" + bits[1:]].right


def assert_block_masks(t, out):
    """The outputs' truth masks follow from the source masks alone: per block,
    innermost-first, ``d | a`` and ``d & a`` for each dominator mask ``d``,
    then the list reversed, bit strings from all-ones down."""
    source = {label: truth_mask(f, t.universe) for label, f in t.defaults}
    sigma = {p.source: p.sigma for p in out.provenance}
    expected = []
    for label, _ in t.defaults:
        acc = [source[label]]
        for j in reversed(sigma[label]):
            d = source[j]
            acc = [d | a for a in acc] + [d & a for a in acc]
        expected += reversed(acc)
    assert [truth_mask(f, t.universe) for _, f in out.defaults] == expected


class TestBlockMasks:
    """Output masks built from the source masks equal the outputs' own masks."""

    @pytest.mark.parametrize("build", GOLDEN_THEORIES)
    def test_goldens(self, build):
        t = build()
        for out in [transform_canonical(t.defaults, t.priority), *transform_all(t.defaults, t.priority, limit=8)]:
            assert_block_masks(t, out)

    @given(ordered_theories())
    @settings(max_examples=60, deadline=None)
    def test_random_orders_and_members(self, t):
        for out in transform_all(t.defaults, t.priority, limit=6):
            assert_block_masks(t, out)

    def test_random_theories(self):
        rng = random.Random(61)
        for _ in range(30):
            t = random_theory(rng, max_defaults=6)
            for out in [transform_canonical(t.defaults, t.priority), *transform_all(t.defaults, t.priority, limit=4)]:
                assert_block_masks(t, out)


# Block a's output w_a_1 (a below b, bit string 1) takes the label of
# a_1's only output.
CLASH_TEXT = "default a: p\ndefault a_1: q\ndefault b: r\nprefer b > a\n"


class TestLabelClash:
    def test_transform_refuses_a_generated_label_twice(self):
        # The outputs are built on first read; their labels are checked at once.
        t = parse_theory(CLASH_TEXT)
        with pytest.raises(ValidationError, match="^generated label 'w_a_1' is not unique$"):
            transform_canonical(t.defaults, t.priority)
        with pytest.raises(ValidationError, match="^generated label 'w_a_1' is not unique$"):
            transform_all(t.defaults, t.priority, limit=4)


# Plain labels, schema-instance labels, and labels that a generated one
# can repeat: w_a_1 is both a's output with bit string 1 and a_1's only
# output.
CLASH_POOL = ["a", "a_1", "a_0", "a_10", "b", "e1[tweety]", "e1[tweety]_1", "e1[opus]", "e2[tweety,opus]", "d0"]


@st.composite
def labelled_orders(draw):
    """Up to 6 defaults over labels of ``CLASH_POOL`` and a random acyclic
    order over them."""
    labels = draw(st.lists(st.sampled_from(CLASH_POOL), min_size=1, max_size=6, unique=True))
    rank = draw(st.permutations(labels))
    edges = [(a, b) for i, a in enumerate(rank) for b in rank[i + 1 :] if draw(st.booleans())]
    return build_theory(defaults=[(l, f"p{k}") for k, l in enumerate(labels)], prefer=edges)


class TestLabelsAndProvenanceOracle:
    """Labels and lazily built provenance equal the eager per-output loop's."""

    @given(labelled_orders())
    @settings(max_examples=200, deadline=None)
    def test_every_member_matches_the_eager_loop(self, t):
        names = t.priority.indices
        combos = list(itertools.islice(_sigma_combinations(t.priority), 6))
        try:
            labels_and_provenance_eagerly(names, combos[0])
        except ValidationError as e:
            for build in (transform_canonical, lambda d, o: transform_all(d, o, limit=6)):
                with pytest.raises(ValidationError) as raised:
                    build(t.defaults, t.priority)
                assert str(raised.value) == str(e)
            return
        members = transform_all(t.defaults, t.priority, limit=6)
        assert len(members) == len(combos)
        for provenance_first in (True, False):
            for out, sigmas in zip([transform_canonical(t.defaults, t.priority), *members], [combos[0], *combos]):
                labels, prov = labels_and_provenance_eagerly(names, sigmas)
                if provenance_first:
                    assert out.provenance == tuple(prov)
                    assert "defaults" not in vars(out)
                assert out.nest.labels == tuple(labels)
                assert [l for l, _ in out.defaults] == labels
                assert out.provenance == tuple(prov)


class TestLazyFieldsIndependent:
    """``defaults`` and ``provenance`` are built each on its own first read."""

    def test_provenance_builds_no_output_formula(self, output_nodes):
        t = chain_theory(8)
        out = transform_canonical(t.defaults, t.priority)
        assert len(out.provenance) == 255 and output_nodes() == 0
        assert "defaults" not in vars(out)
        assert not hasattr(parallel_theory(t, out), "provenance")
        # a control: the count sees the build
        assert len(out.defaults) == 255 and output_nodes() > 0

    def test_defaults_build_no_provenance(self, monkeypatch):
        built = [0]

        def counting(*args, make=parapri.theory.Provenance):
            built[0] += 1
            return make(*args)

        monkeypatch.setattr(parapri.theory, "Provenance", counting)
        t = chain_theory(8)
        out = transform_canonical(t.defaults, t.priority)
        assert len(out.defaults) == 255 and built[0] == 0
        assert "provenance" not in vars(out)
        # a control: the count sees the build
        assert len(out.provenance) == 255 and built[0] == 255

    @pytest.mark.parametrize("build", GOLDEN_THEORIES)
    def test_unread_output_pickles_copies_compares_and_hashes(self, build):
        t = build()

        def unread():
            return transform_canonical(t.defaults, t.priority)

        read = unread()
        read.defaults, read.provenance
        loaded = pickle.loads(pickle.dumps(unread()))
        assert not {"defaults", "provenance"} & vars(loaded).keys()  # still unread
        assert loaded.nest == read.nest
        copies = [loaded, copy.copy(unread()), copy.deepcopy(unread()), dataclasses.replace(unread()), unread()]
        for out in copies:
            assert out == read and hash(out) == hash(read)
        assert hash(unread()) == hash(read) and unread() == unread()
        assert unread() == hand_built(t, read)


@pytest.fixture
def output_nodes(monkeypatch):
    """The number of Or and And nodes built for transform outputs since the
    fixture started: ``theory.Nest._built`` builds them through these
    two names of ``parapri.theory``, which nothing else there calls."""
    built = [0]

    def counting(node):
        def make(left, right):
            built[0] += 1
            return node(left, right)

        return make

    monkeypatch.setattr(parapri.theory, "Or", counting(Or))
    monkeypatch.setattr(parapri.theory, "And", counting(And))
    return lambda: built[0]


class TestOutputsBuiltOnFirstRead:
    """Only a read of ``defaults`` builds a transform's output formulas."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("query", "chain8_fixed.thy", "p1 | q"),  # the direct and the transform route, a fixture
            ("query", "tweety.thy", "flies"),
            ("check-equiv", "chain8_fixed.thy"),
            ("check-equiv", "fixed_bird.thy", "--project", "bird,flies"),
            ("check-equiv", "fan_in.thy", "--all", "2"),
            ("transform", "chain8_fixed.thy"),
            ("transform", "fan_in.thy", "--all", "2", "--format", "json"),
        ],
    )
    def test_cli_builds_no_output_formula(self, capsys, output_nodes, argv):
        assert main([argv[0], str(DATA / argv[1]), *argv[2:]]) == 0
        assert capsys.readouterr().err == ""
        assert output_nodes() == 0

    def test_engine_and_printer_build_none_and_a_read_builds_them(self, output_nodes):
        t = parse_theory((DATA / "chain8_fixed.thy").read_text())
        out = transform_canonical(t.defaults, t.priority)
        p = parallel_theory(t, out)
        print_theory(p)
        skeptical_entails(p, F("q"))
        assert output_nodes() == 0
        # a control: the count sees the build, 2^(m+1) - 2 nodes per block of 2^m
        assert len(out.defaults) == 255
        assert output_nodes() == sum(2 ** (m + 1) - 2 for m in range(8))

    @pytest.mark.parametrize("build", GOLDEN_THEORIES)
    def test_equal_to_hand_built_whenever_read(self, output_nodes, build):
        t = build()
        for read_first in (True, False):
            start = output_nodes()
            out = transform_canonical(t.defaults, t.priority)
            p = parallel_theory(t, out)
            if read_first:
                assert len(out.defaults) == output_size(t.priority).total
            built = output_nodes()
            mask = preferred_models(p).mask
            assert output_nodes() == built and (read_first or built == start)
            unshared = hand_built(t, out)
            assert out == unshared and hash(out) == hash(unshared)
            assert p == parallel_theory(t, unshared)
            assert mask == preferred_models(parallel_theory(t, unshared)).mask

    def test_copies_keep_no_nest(self):
        out = transform_canonical(chain_theory(3).defaults, chain_theory(3).priority)
        for copy in (dataclasses.replace(out), _corrupt(out)):
            assert_identity_nest(copy)
            assert len(copy.defaults) == 7
        assert dataclasses.replace(out) == out
