"""Formula parsing, printing, evaluation, and packed truth tables."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ac_key, evaluate, formula_equal_reference, parse_formula_reference, text_naive
from parapri.errors import ParseError, UniverseError
from parapri.theory import LabeledFormula, Theory, parallel_order, parse_theory, print_theory
from parapri.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    Iff,
    Implies,
    Interpretation,
    Not,
    Or,
    atoms,
    parse_formula,
    to_text,
    truth_mask,
)

F = parse_formula
A, B = Atom("a"), Atom("b")


def formulas(atom_names=("a", "b", "c")):
    leaves = st.sampled_from([Atom(n) for n in atom_names] + [TRUE, FALSE])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Iff, kids, kids),
        ),
        max_leaves=16,
    )


class TestNodes:
    NODES = [Atom("a"), Const(False), Not(Atom("a")), And(A, B), Or(A, B), Implies(A, B), Iff(A, B)]

    @pytest.mark.parametrize("g", NODES, ids=lambda g: type(g).__name__)
    def test_slots_only_and_read_only(self, g):
        assert not hasattr(g, "__dict__")
        before = repr(g)
        for name in g.__match_args__:
            with pytest.raises(AttributeError):
                setattr(g, name, TRUE)
            with pytest.raises(AttributeError):
                delattr(g, name)
        with pytest.raises(AttributeError):
            g.extra = 1
        assert repr(g) == before

    def test_match_binds_positional_subpatterns(self):
        match Implies(And(Not(Atom("p")), TRUE), Iff(B, FALSE)):
            case Implies(And(Not(Atom(name)), Const(value)), Iff(Atom(other), right)):
                assert (name, value, other, right) == ("p", True, "b", FALSE)
            case _:
                pytest.fail("no match")
        assert ac_key(F("(b | a) & ~(c <-> d)")) == ac_key(F("~(d <-> c) & (a | b)"))

    def test_repr_keyword_form(self):
        assert repr(Implies(Atom("a"), Not(Const(False)))) == (
            "Implies(left=Atom(name='a'), right=Not(arg=Const(value=False)))"
        )

    @given(formulas())
    @settings(max_examples=150)
    def test_equal_nodes_hash_equal(self, f):
        for g in (parse_formula(to_text(f)), pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f)
            assert {f: 1}[g] == 1


# Tokens, whitespace, comments and junk for the differential parser test.
TOKEN_FRAGMENTS = [
    "<->", "->", "~", "&", "|", "(", ")", ",", "a", "b1", "_x", "f(a,b)", "true", "false",
    " ", "\n", "\t", "# c\n", "#", "$", "9", "é", "<", "-", "((", "))",
]


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.offset, e.line


class TestParser:
    def test_implication_right_associative(self):
        assert F("a -> b -> c") == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_precedence(self):
        assert F("~a & b | c") == Or(And(Not(Atom("a")), Atom("b")), Atom("c"))

    def test_inheritance_rule_shape(self):
        assert F("bird -> (flies & ~ostrich)") == Implies(
            Atom("bird"), And(Atom("flies"), Not(Atom("ostrich")))
        )

    def test_iff_left_associative(self):
        assert F("a <-> b <-> c") == Iff(Iff(Atom("a"), Atom("b")), Atom("c"))

    def test_ground_atom_is_opaque(self):
        f = F("flies(tweety)")
        assert f == Atom("flies(tweety)")
        assert atoms(f) == ("flies(tweety)",)

    def test_constants(self):
        assert F("true") is TRUE
        assert F("false") is FALSE

    def test_comments_and_whitespace(self):
        assert F("a &  # trailing comment\n b") == And(Atom("a"), Atom("b"))

    def test_unknown_token_reports_offset(self):
        with pytest.raises(ParseError, match=r"^unknown token '\$' \(at byte offset 2\)$") as e:
            F("a $ b")
        assert e.value.offset == 2

    def test_dangling_operator(self):
        with pytest.raises(ParseError, match=r"^expected a formula, found 'end of input' \(at byte offset 3\)$"):
            F("a &")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError, match=r"^expected '\)', found 'end of input' \(at byte offset 6\)$"):
            F("(a & b")

    def test_bad_atom_args(self):
        with pytest.raises(ParseError, match=r"^expected '\)', found '&' \(at byte offset 8\)$"):
            F("flies(a & b)")

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("flies()", "expected an identifier, found ')'", 6),
            ("a b", "unexpected 'b' after formula", 2),
            ("", "expected a formula, found 'end of input'", 0),
            ("# only a comment", "expected a formula, found 'end of input'", 16),
            (") $", "unknown token '$'", 2),  # an unknown character wins over a syntax error
            ("a é", "unknown token 'é'", 2),  # alphabetic, but not an identifier
            ("a <- b", "unknown token '<'", 2),
        ],
    )
    def test_error_messages(self, text, message, offset):
        with pytest.raises(ParseError) as e:
            F(text)
        assert (str(e.value), e.value.offset, e.value.line) == (f"{message} (at byte offset {offset})", offset, None)

    @pytest.mark.parametrize("prefix", ["ab " * 3000, "# ab cd\n" * 1000 + "~", "(" * 3000])
    def test_late_unknown_token_in_a_long_text(self, prefix):
        # Tokens split one way only, so a failed scan is linear in the text.
        with pytest.raises(ParseError, match=rf"^unknown token '\$' \(at byte offset {len(prefix)}\)$"):
            F(prefix + "$")

    def test_names_dict_shares_atoms_in_first_mention_order(self):
        names = {"c": Atom("c")}
        f, g = F("b & f(a,b) | c", names), F("~b -> a", names)
        assert list(names) == ["c", "b", "f(a,b)", "a"]
        assert f.left.left is g.left.arg is names["b"] and f.right is names["c"]

    def test_one_name_goes_through_the_names_dict(self):
        names = {"b": Atom("b")}
        assert F(" b\t", names) is names["b"]
        assert F("\ntrue ", names) is TRUE
        c = F("c", names)
        assert names == {"b": Atom("b"), "c": c} and c == Atom("c")

    @given(st.lists(st.sampled_from(TOKEN_FRAGMENTS), max_size=14).map("".join))
    @settings(max_examples=2000)
    def test_agrees_with_reference_parser(self, text):
        assert parse_outcome(F, text) == parse_outcome(parse_formula_reference, text)

    @given(formulas())
    @settings(max_examples=150)
    def test_round_trip(self, f):
        assert parse_formula(to_text(f)) == f


def unshared_atoms(*roots):
    """Atom names in first-mention order from a plain walk of every
    occurrence of every node, shared or not."""
    names = []
    todo = list(reversed(roots))
    while todo:
        g = todo.pop()
        if type(g) is Atom:
            names.append(g.name)
        elif type(g) is Not:
            todo.append(g.arg)
        elif type(g) is not Const:
            todo += (g.right, g.left)
    return tuple(dict.fromkeys(names))


class TestSharedWalks:
    """Roots that share subtrees give ``atoms`` the same names as unshared copies."""

    @given(st.lists(formulas(("a", "b", "c", "d")), min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_memo_gives_the_unmemoized_results(self, fs):
        # Roots that repeat objects, nest them on either side and inside one another.
        roots = fs + [And(f, g) for f, g in zip(fs, reversed(fs))] + [Not(Or(fs[0], fs[-1])), fs[0]]
        assert atoms(*roots) == unshared_atoms(*roots)
        assert [atoms(f) for f in roots] == [unshared_atoms(f) for f in roots]


class TestEvaluate:
    def test_tautology_is_true_everywhere(self):
        for idx in range(2):
            z = Interpretation.from_index(("a",), idx)
            assert evaluate(F("a | ~a"), z)

    def test_and(self):
        z = Interpretation.of(("a", "b"), {"a": True, "b": False})
        assert not evaluate(F("a & b"), z)

    def test_rule_violated(self):
        z = Interpretation.of(("ostrich", "flies", "bird"), {"ostrich": True, "flies": True, "bird": True})
        assert not evaluate(F("ostrich -> ~flies"), z)

    def test_missing_atom(self):
        z = Interpretation.of(("a",), {"a": True})
        with pytest.raises(UniverseError):
            evaluate(F("b"), z)

    @given(formulas(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=200)
    def test_agrees_with_packed_truth_table(self, f, idx):
        universe = ("a", "b", "c")
        mask = truth_mask(f, universe)
        z = Interpretation.from_index(universe, idx)
        assert evaluate(f, z) == bool((mask >> idx) & 1)


def entails(premises, f, universe):
    """Whether ``f``'s packed truth table holds on every row where all
    ``premises`` hold."""
    missed = ((1 << (1 << len(universe))) - 1) ^ truth_mask(f, universe)
    for p in premises:
        missed &= truth_mask(p, universe)
    return missed == 0


def is_tautology(f, universe):
    return entails((), f, universe)


class TestBruteForce:
    def test_excluded_middle(self):
        assert is_tautology(F("a | ~a"), ("a",))

    def test_atom_not_tautology(self):
        assert not is_tautology(F("a"), ("a",))

    def test_pairing_equivalence(self):
        assert is_tautology(F("((p&q)|(~p&~q)) <-> (p<->q)"), ("p", "q"))

    def test_modus_ponens(self):
        assert entails([F("ostrich -> bird"), F("ostrich")], F("bird"), ("ostrich", "bird"))

    def test_nothing_from_nothing(self):
        assert not entails([], F("a"), ("a",))

    def test_rule_strengthening(self):
        universe = ("ostrich", "bird", "flies")
        goal = F("(bird -> flies) -> (ostrich -> flies)")
        premise = F("ostrich -> bird")
        # independent check: walk the whole truth table
        expected = all(
            evaluate(goal, Interpretation.from_index(universe, idx))
            for idx in range(8)
            if evaluate(premise, Interpretation.from_index(universe, idx))
        )
        assert expected is True
        assert entails([premise], goal, universe)

    @given(formulas(), st.lists(formulas(), max_size=3))
    @settings(max_examples=60)
    def test_entails_via_tautology(self, f, premises):
        universe = ("a", "b", "c")
        chained = f
        for p in premises:
            chained = Implies(p, chained)
        assert entails(premises, f, universe) == is_tautology(chained, universe)


class TestInterpretation:
    def test_index_round_trip(self):
        universe = ("a", "b", "c")
        for idx in range(8):
            assert Interpretation.from_index(universe, idx).index == idx

    def test_universe_mismatch_rejected(self):
        with pytest.raises(UniverseError):
            Interpretation(("a", "b"), (True,))

    def test_duplicate_atom_rejected(self):
        with pytest.raises(UniverseError):
            Interpretation(("a", "a"), (True, False))


DEEP = 10_000


def _nest(step, start):
    f = start
    for _ in range(DEEP):
        f = step(f)
    return f


# name -> (builder, truth table over ("a", "b"): a = 0b1010, b = 0b1100)
DEEP_CASES = {
    "not": (lambda: _nest(Not, And(A, B)), 0b1000),
    "and-left": (lambda: _nest(lambda f: And(f, B), A), 0b1000),
    "or-right": (lambda: _nest(lambda f: Or(A, f), B), 0b1110),
    "implies-right": (lambda: _nest(lambda f: Implies(A, f), B), 0b1101),
    "iff-left": (lambda: _nest(lambda f: Iff(f, B), A), 0b1010),
    # Right spines with literal left operands, the shape of transform outputs.
    "and-right-negated": (lambda: _nest(lambda f: And(Not(A), f), B), 0b0100),
    "or-right-negated": (lambda: _nest(lambda f: Or(Not(A), f), B), 0b1101),
    "alternating-spine": (lambda: _nest(lambda f: And(A, Or(Not(B), f)), B), 0b1010),
    "not-odd-over-spine": (lambda: Not(_nest(Not, Or(Not(A), B))), 0b0010),
}


class TestDeepFormulas:
    @pytest.mark.parametrize("name", DEEP_CASES)
    def test_round_trip_atoms_and_truth_table(self, name):
        build, mask = DEEP_CASES[name]
        f = build()
        text = to_text(f)
        # Fully parenthesized text is injective on trees, so equal text
        # means parse_formula rebuilt the same tree.
        assert to_text(parse_formula(text)) == text
        assert atoms(f) == ("a", "b")
        assert atoms(Atom("c"), f, f) == ("c", "a", "b")
        assert truth_mask(f, ("a", "b")) == mask

    @pytest.mark.parametrize("name", DEEP_CASES)
    def test_theory_round_trip_compares_and_hashes(self, name):
        f = DEEP_CASES[name][0]()
        t = Theory(("a", "b"), (), (LabeledFormula("d", f),), parallel_order(("d",)))
        back = parse_theory(print_theory(t))
        assert back == t
        assert hash(back.defaults[0].formula) == hash(f)

    def test_difference_at_the_bottom_is_found(self):
        assert _nest(lambda f: And(f, B), A) != _nest(lambda f: And(f, B), B)
        assert _nest(lambda f: Or(A, f), B) != _nest(lambda f: Or(A, f), A)


@st.composite
def shared_roots(draw, atom_names=("a", "b", "c")):
    """Roots over one pool of nodes, each new node built from earlier ones,
    so subtrees repeat within a root and across roots."""
    pool = [Atom(n) for n in atom_names] + [TRUE, FALSE]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from([Not, And, Or, Implies, Iff]))
        pool.append(kind(*(draw(st.sampled_from(pool)) for _ in range(1 if kind is Not else 2))))
    return draw(st.lists(st.sampled_from(pool[len(atom_names) + 2 :]), min_size=1, max_size=5))


class TestTruthMask:
    @given(shared_roots())
    @settings(max_examples=200)
    def test_shared_memo_matches_oracle(self, roots):
        universe = ("a", "b", "c")
        masks = [truth_mask(f, universe) for f in roots]
        for f, mask in zip(roots, masks):
            for idx in range(8):
                assert evaluate(f, Interpretation.from_index(universe, idx)) == bool((mask >> idx) & 1)

    @pytest.mark.parametrize(
        "f",
        [
            And(Atom("z"), A),  # a spine literal
            Or(Not(Atom("z")), A),  # a negated spine literal
            Not(Atom("z")),  # under a Not
            Not(And(A, Or(B, Atom("z")))),
            Atom("z"),  # a plain leaf
            Implies(And(A, B), Atom("z")),
        ],
    )
    def test_unknown_atom(self, f):
        with pytest.raises(UniverseError, match=r"^atom 'z' not in universe$"):
            truth_mask(f, ("a", "b"))

    @pytest.mark.parametrize("f", [And(A, 3), And(3, A), Not(None), Iff(Not(A), Not("a"))])
    def test_not_a_formula(self, f):
        for walk in (lambda g: truth_mask(g, ("a", "b")), to_text, atoms):
            with pytest.raises(TypeError, match="^not a formula: "):
                walk(f)


LITERALS = [A, B, TRUE, FALSE, Not(A), Not(TRUE), Not(FALSE)]


@st.composite
def spines(draw):
    """Right-nested chains of every connective over drawn tails, with
    literal (atom, constant, negated atom or constant) or compound left
    operands: the shape of transform outputs and of ``->`` chains."""
    f = draw(formulas())
    ops = st.sampled_from([And, Or, Implies, Iff])
    for op, left in draw(st.lists(st.tuples(ops, st.one_of(st.sampled_from(LITERALS), formulas())), max_size=8)):
        f = op(left, f)
    return f


class TestToText:
    @given(st.one_of(shared_roots(), st.lists(spines(), min_size=1, max_size=4)))
    @settings(max_examples=300)
    def test_matches_recursive_printer(self, fs):
        roots = fs + [Implies(f, Iff(g, f)) for f, g in zip(fs, reversed(fs))]
        want = [text_naive(f) for f in roots]
        assert [to_text(f) for f in roots] == want


def _copy(f, last=None):
    """A node-for-node copy of ``f``; given ``last``, its rightmost leaf
    (the bottom of a right spine) becomes ``last``."""
    match f:
        case Not(arg):
            return Not(_copy(arg, last))
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return type(f)(_copy(l), _copy(r, last))
        case Atom(name):
            return last or Atom(name)
        case Const(value):
            return last or Const(value)


EQ_NAMES = ("a", "true")  # Atom("true") prints as TRUE does but is not equal to it


@st.composite
def formula_pairs(draw):
    """A formula, possibly one of several that share subtrees, with one of:
    another drawn formula, a root of the same pool, a copy, or a copy that
    differs only in its rightmost leaf."""
    kind = draw(st.sampled_from(["drawn", "same pool", "copy", "last leaf"]))
    if kind == "same pool":
        roots = draw(shared_roots(EQ_NAMES))
        return draw(st.sampled_from(roots)), draw(st.sampled_from(roots))
    f = draw(st.one_of(formulas(EQ_NAMES), spines(), shared_roots(EQ_NAMES).flatmap(st.sampled_from)))
    if kind == "drawn":
        return f, draw(formulas(EQ_NAMES))
    if kind == "copy":
        return f, _copy(f)
    return f, _copy(f, draw(st.sampled_from([A, B, Atom("true"), Atom("false"), TRUE, FALSE])))


SPINE = 40_000


class TestEquality:
    @given(formula_pairs())
    @settings(max_examples=300)
    def test_agrees_with_reference(self, pair):
        f, g = pair
        want = formula_equal_reference(f, g)
        assert (f == g) is want and (g == f) is want and (f != g) is not want
        if want:
            assert hash(f) == hash(g)

    def test_constants_are_not_atoms(self):
        for name, const in (("true", TRUE), ("false", FALSE)):
            assert str(Atom(name)) == str(const)
            assert Atom(name) != const and Not(Atom(name)) != Not(const)
            assert And(A, Atom(name)) != And(A, const)
        assert Const(True) == TRUE and hash(Const(True)) == hash(TRUE)

    @pytest.mark.parametrize("step", [lambda f: Or(A, f), lambda f: And(f, B)], ids=["right", "left"])
    def test_long_spines(self, step):
        f, g, h = A, A, B
        for _ in range(SPINE):
            f, g, h = step(f), step(g), step(h)
        assert f == g and hash(f) == hash(g)
        assert f != h  # only the bottom leaf differs

    @pytest.mark.parametrize(
        "f, g", [(Not(3), Not(3)), (And(A, None), And(A, None)), (Or(A, B), Or(A, "b"))]
    )
    def test_not_a_formula(self, f, g):
        for call in (lambda: f == g, lambda: g == f, lambda: hash(g)):
            with pytest.raises(TypeError, match="^not a formula: "):
                call()
        assert A != 3 and A != "a"
