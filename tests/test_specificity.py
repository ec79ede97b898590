"""Redundancy pruning, the built-in inheritance cases, and the guarded encoding."""

import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from generate import random_formula, random_theory
from helpers import ac_set, closure_pairs, positive_closure_naive
from scenarios import (
    INHERITANCE_CASES,
    abnormality_variant_report,
    inheritance_parallel_theory,
    inheritance_theory,
    verify_special_case,
)
import parapri.specificity
from parapri import config
from parapri.circumscription import cell_columns, circ_equivalent, preferred_models, skeptical_entails
from parapri.errors import CapExceededError, InternalError, UniverseError, ValidationError
from parapri.formula import LABEL_RE, Atom, parse_formula, to_text, truth_mask
from parapri.specificity import (
    COMBINATION,
    TAUT_FALSE,
    TAUT_TRUE,
    AB_VARIANTS,
    DropRecord,
    PruneReport,
    encode_abnormality,
    _positive_combination,
    prune_redundant,
)
from parapri.theory import LabeledFormula, PriorityOrder, Theory, build_theory, ground, parse_theory, print_theory
from parapri.transform import Provenance, TransformOutput, transform_all, transform_canonical

F = parse_formula
DATA = Path(__file__).parent / "data"


def pruned_in_order(w, base, universe, order, k=2):
    """The pruner's loop, visiting the outputs of ``w`` in ``order``: the
    report ``prune_redundant`` gives if it visits them so."""
    cells, _, masks = cell_columns(base, [w.nest], tuple(universe))
    full = (1 << len(cells)) - 1
    alive, drops = set(range(len(masks))), {}
    for pos in order:
        label, f = w.defaults[pos]
        fm = masks[pos]
        if fm in (0, full):
            drops[pos] = DropRecord(label, f, TAUT_TRUE if fm == full else TAUT_FALSE)
        else:
            others = sorted(alive - {pos})
            found = next((c for size in range(1, k + 1) for c in itertools.combinations(others, size)
                          if _positive_combination(fm, [masks[q] for q in c], full)), None)
            if not found:
                continue
            drops[pos] = DropRecord(label, f, COMBINATION, tuple(w.defaults[q].label for q in found))
        alive.discard(pos)
    return PruneReport(tuple(w.defaults[p] for p in sorted(alive)), tuple(drops[p] for p in sorted(drops)))


def labeled(*pairs):
    # Each pair is its own source block, so the pruner scans them last to first.
    return TransformOutput(
        tuple(LabeledFormula(l, F(f)) for l, f in pairs),
        tuple(Provenance(l, (), "") for l, _ in pairs),
    )


class TestPruneRedundant:
    def test_tautology_dropped(self):
        report = prune_redundant(labeled(("w1", "a | ~a"), ("w2", "a")), [], ("a",))
        assert [d.label for d in report.dropped] == ["w1"]
        assert report.dropped[0].reason == TAUT_TRUE

    def test_failed_self_check(self, monkeypatch):
        # The last step compares the kept outputs with the whole output; a
        # failed comparison is a fault of the library, not of the input.
        monkeypatch.setattr(parapri.specificity, "circ_equivalent", lambda before, after: False)
        with pytest.raises(InternalError, match="^pruning changed the preferred models$"):
            prune_redundant(labeled(("w1", "a | ~a"), ("w2", "a")), [], ("a",))

    def test_cap(self):
        with pytest.raises(CapExceededError, match="^21 atoms exceeds the enumeration cap of 20$"):
            prune_redundant(labeled(("w1", "x0")), [], tuple(f"x{k}" for k in range(21)))

    def test_atom_outside_the_universe_refused_by_the_truth_tables(self):
        # The self-check builds its theories without the constructor's atom
        # walk; the truth tables have already refused any atom it would find.
        t = build_theory(atoms=("p", "q"), defaults=[("d1", "p"), ("d2", "q")], prefer=[("d1", "d2")])
        out = transform_canonical(t.defaults, t.priority)
        assert out.nest.sigmas == ((), (0,))
        for w, base, name in (
            (labeled(("w1", "p"), ("w2", "zz")), [], "zz"),  # a hand-built output
            (labeled(("w1", "p")), [F("q")], "q"),  # a base formula
            (out, [], "q"),  # a transform's source
        ):
            with pytest.raises(UniverseError, match=f"^atom '{name}' not in universe$"):
                prune_redundant(w, base, ("p",))

    def test_contradiction_dropped(self):
        report = prune_redundant(labeled(("w1", "a & ~a"), ("w2", "a")), [], ("a",))
        assert report.dropped[0].reason == TAUT_FALSE

    def test_base_entailed_formula_dropped(self):
        report = prune_redundant(labeled(("w1", "p -> q"), ("w2", "p")), [F("q")], ("p", "q"))
        assert [d.label for d in report.dropped] == ["w1"]
        assert report.dropped[0].reason == TAUT_TRUE

    def test_duplicate_keeps_the_first(self):
        report = prune_redundant(labeled(("w1", "a"), ("w2", "a")), [], ("a",))
        assert [l for l, _ in report.kept] == ["w1"]
        assert report.dropped[0].label == "w2"
        assert report.dropped[0].reason == COMBINATION
        assert report.dropped[0].witnesses == ("w1",)

    def test_conjunction_of_others_dropped(self):
        report = prune_redundant(
            labeled(("w1", "a"), ("w2", "b"), ("w3", "a & b")), [], ("a", "b")
        )
        assert [d.label for d in report.dropped] == ["w3"]
        assert set(report.dropped[0].witnesses) == {"w1", "w2"}

    def test_kept_plus_dropped_partition_the_input(self):
        w = labeled(("w1", "a | ~a"), ("w2", "a"), ("w3", "a"), ("w4", "b"))
        report = prune_redundant(w, [], ("a", "b"))
        kept_labels = {l for l, _ in report.kept}
        dropped_labels = {d.label for d in report.dropped}
        assert kept_labels | dropped_labels == {"w1", "w2", "w3", "w4"}
        assert not kept_labels & dropped_labels

    def test_transform_then_prune_stays_equivalent(self):
        case = INHERITANCE_CASES[11]
        t = inheritance_theory(11)
        out = transform_canonical(t.defaults, t.priority)
        report = prune_redundant(out, t.base, t.universe)
        pruned = Theory(
            universe=t.universe,
            base=t.base,
            defaults=report.kept,
            priority=PriorityOrder(tuple(l for l, _ in report.kept)),
        )
        listed_set = build_theory(atoms=case.universe, base=case.base, defaults=case.parallel_defaults)
        assert circ_equivalent(pruned, listed_set)

    def test_soundness_on_random_transforms(self):
        rng = random.Random(211)
        for _ in range(30):
            t = random_theory(rng, max_atoms=4)
            out = transform_canonical(t.defaults, t.priority)
            report = prune_redundant(out, t.base, t.universe)
            pruned = Theory(
                universe=t.universe,
                base=t.base,
                defaults=report.kept,
                priority=PriorityOrder(tuple(l for l, _ in report.kept)),
            )
            full = Theory(
                universe=t.universe,
                base=t.base,
                defaults=out.defaults,
                priority=PriorityOrder(tuple(l for l, _ in out.defaults)),
            )
            assert circ_equivalent(pruned, full)

    def test_readding_a_dropped_formula_changes_nothing(self):
        rng = random.Random(223)
        for _ in range(15):
            t = random_theory(rng, max_atoms=4)
            out = transform_canonical(t.defaults, t.priority)
            report = prune_redundant(out, t.base, t.universe)
            if not report.dropped:
                continue
            kept = Theory(
                universe=t.universe, base=t.base, defaults=report.kept,
                priority=PriorityOrder(tuple(l for l, _ in report.kept)),
            )
            for d in report.dropped:
                readded = report.kept + (LabeledFormula(d.label, d.formula),)
                again = Theory(
                    universe=t.universe, base=t.base, defaults=readded,
                    priority=PriorityOrder(tuple(l for l, _ in readded)),
                )
                assert preferred_models(kept).index_set == preferred_models(again).index_set


    def test_prune_builds_no_provenance(self):
        t = inheritance_theory(11)
        out = transform_canonical(t.defaults, t.priority)
        prune_redundant(out, t.base, t.universe)
        assert "provenance" not in vars(out)

    def test_nest_order_is_the_provenance_order(self):
        # The pruner visits the nest's blocks last to first, each in order;
        # the oracle sorts on (source block, bit value) from the provenance,
        # descending, as the pruner once did.
        rng = random.Random(227)
        for _ in range(40):
            t = random_theory(rng, max_atoms=4)
            for out in transform_all(t.defaults, t.priority, 4):
                blocks, start = [], 0
                for sigma in out.nest.sigmas:
                    blocks.append(list(range(start, start + (1 << len(sigma)))))
                    start += 1 << len(sigma)
                visit = [pos for block in reversed(blocks) for pos in block]
                block_of = {}
                keys = [(block_of.setdefault(p.source, len(block_of)), int(p.bits or "0", 2)) for p in out.provenance]
                old = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
                assert visit == old
                report = prune_redundant(out, t.base, t.universe)
                assert report == pruned_in_order(out, t.base, t.universe, old)


class TestPositiveCombinations:
    @staticmethod
    def columns(n):
        universe = tuple("abcde"[:n])
        return [truth_mask(Atom(a), universe) for a in universe]

    def test_closure_of_three_atoms(self):
        # the monotone functions of three atoms, less the two constants
        assert len(positive_closure_naive(self.columns(3))) == 18

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_the_closure(self, data):
        full = (1 << (1 << data.draw(st.integers(1, 5), label="atoms"))) - 1
        pool = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=4), label="pool")
        masks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4), label="masks")
        base = data.draw(st.integers(0, full), label="base")
        closure = positive_closure_naive(masks)
        if data.draw(st.booleans(), label="from closure"):
            fm = data.draw(st.sampled_from(sorted(closure)), label="c") & base
        else:
            fm = data.draw(st.integers(0, full), label="fm") & base
        assume(fm not in (0, base))
        assert _positive_combination(fm, masks, base) == any(c & base == fm for c in closure)


class TestInheritanceCases:
    @pytest.mark.parametrize("case", [11, 12, 13])
    def test_verify(self, case):
        assert verify_special_case(case)

    def test_unknown_case(self):
        with pytest.raises(ValidationError):
            verify_special_case(7)

    def test_case_13_animal_only_scenario(self):
        c = INHERITANCE_CASES[13]
        t = build_theory(
            atoms=c.universe, base=c.base + ("animal",), defaults=c.defaults, prefer=c.prefer
        )
        assert skeptical_entails(t, F("~flies"))

    def test_case_13_plain_bird_scenario(self):
        c = INHERITANCE_CASES[13]
        t = build_theory(
            atoms=c.universe,
            base=c.base + ("bird", "~ostrich", "~penguin"),
            defaults=c.defaults,
            prefer=c.prefer,
        )
        assert skeptical_entails(t, F("flies"))

    def test_parallel_counterparts_differ_from_input_syntax(self):
        # the listed parallel sets are not just the transform output relabeled
        t = inheritance_theory(11)
        out = transform_canonical(t.defaults, t.priority)
        listed = inheritance_parallel_theory(11)
        assert ac_set(f for _, f in out.defaults) != ac_set(f for _, f in listed.defaults)


class TestEncodeAbnormality:
    def test_structure_of_the_violation_encoding(self):
        t = inheritance_theory(11)
        enc = encode_abnormality(t, variant="violation")
        base_texts = {to_text(f) for f in enc.base}
        assert "(~ab_e1 -> (bird -> flies))" in base_texts
        assert "(~ab_e2 -> (ostrich -> ~flies))" in base_texts
        assert "(~(ostrich -> ~flies) -> ab_e1)" in base_texts
        assert [to_text(f) for _, f in enc.defaults] == ["~ab_e1", "~ab_e2"]
        assert not any(enc.priority.above)
        assert enc.fixtures == ()

    def test_cancellation_axioms_follow_declaration_order(self):
        # one axiom per strict pair (j, i): lower rule i in declaration
        # order, then its higher rules j in declaration order
        t = build_theory(
            defaults=[(f"r{k}", f"c{k} -> q{k}") for k in range(5)],
            prefer=[("r3", "r1"), ("r1", "r0"), ("r4", "r0"), ("r2", "r4"), ("r3", "r2")],
        )
        order = t.priority
        enc = encode_abnormality(t, variant="class-positive")
        want = [
            f"({j.replace('r', 'c')} -> ab_{i})"
            for i in order.indices
            for j in order.indices
            if (j, i) in closure_pairs(order)
        ]
        assert [to_text(f) for f in enc.base[len(t.defaults):]] == want

    def test_empty_priority_adds_no_cancellation(self):
        enc = encode_abnormality(build_theory(defaults=[("r1", "p -> q")]))
        assert len(enc.base) == 1

    def test_cap_counts_guards_and_cancellation_axioms(self, monkeypatch):
        # three guards and three cancellation axioms: r2 > r1 > r0, closed
        t = build_theory(defaults=[(f"r{k}", f"c{k} -> q") for k in range(3)], prefer=[("r2", "r1"), ("r1", "r0")])
        monkeypatch.setattr(config, "TRANSFORM_FORMULAS", 6)
        for variant in AB_VARIANTS:
            assert len(encode_abnormality(t, variant).base) == 6
        monkeypatch.setattr(config, "TRANSFORM_FORMULAS", 5)
        for variant in AB_VARIANTS:
            with pytest.raises(CapExceededError, match=r"^guarded encoding would emit 6 formulas, above the cap of 5$"):
                encode_abnormality(t, variant)

    def test_cap_refuses_before_grounding(self):
        # 1024 instances of e1, each below the 1024 of e2: 2048 guards and
        # 1024^2 axioms, above the cap; the defaults are never read.
        domain = " ".join(f"c{k}" for k in range(1, 33))
        text = f"domain: {domain}\nschema e1[X,Y]: p(X) -> q(X,Y)\nschema e2[X,Y]: r(Y) -> ~q(X,Y)\nprefer e2 > e1\n"
        t = ground(parse_theory(text))
        with pytest.raises(CapExceededError, match=f"^guarded encoding would emit {2048 + 1024**2} formulas, "):
            encode_abnormality(t)
        assert not {"defaults", "universe"} & vars(t).keys()

    def test_violation_variant_projects_onto_the_original(self):
        for case in (11, 12, 13):
            t = inheritance_theory(case)
            enc = encode_abnormality(t, variant="violation")
            assert circ_equivalent(t, enc, project=t.universe)

    def test_variant_report_shape(self):
        report = abnormality_variant_report()
        assert set(report) == {"violation", "class", "class-positive"}
        assert all(set(v) == {11, 12, 13} for v in report.values())
        assert all(report["violation"].values())
        # the verbatim class-condition axiom cancels the wrong way around
        assert not any(report["class"].values())

    def test_ab_atom_clash_rejected(self):
        t = build_theory(atoms=("p", "q", "ab_r1"), defaults=[("r1", "p -> q")])
        with pytest.raises(ValidationError):
            encode_abnormality(t)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError):
            encode_abnormality(build_theory(defaults=[("r1", "p -> q")]), variant="bogus")

    def test_non_rule_default_rejected(self):
        t = build_theory(atoms=("p", "q", "ab_d"), defaults=[("d", "p & q")])
        with pytest.raises(ValidationError, match="^default 'd' is not an implication rule$"):
            encode_abnormality(t)

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(st.from_regex(LABEL_RE, fullmatch=True), min_size=2, max_size=3, unique=True),
        variant=st.sampled_from(AB_VARIANTS),
    )
    def test_encoding_loads_back_or_is_refused(self, labels, variant):
        # A label with text after its brackets names no atom: refused, with
        # the default named; any other encoding prints a file that loads
        # back to an equal theory.
        t = build_theory(
            defaults=[(label, f"c{k} -> {'~' * (k % 2)}q") for k, label in enumerate(labels)],
            prefer=list(zip(labels[1:], labels)),
        )
        bad = [label for label in labels if "]" in label and not label.endswith("]")]
        if bad:
            message = f"^default {re.escape(repr(bad[0]))} gives no abnormality atom: "
            with pytest.raises(ValidationError, match=message):
                encode_abnormality(t, variant)
        else:
            enc = encode_abnormality(t, variant)
            assert parse_theory(print_theory(enc)) == enc

    def test_schema_encoding_prints_loadable_atoms(self):
        t = ground(parse_theory((DATA / "schema_birds.thy").read_text()))
        enc = encode_abnormality(t)
        assert "ab_e1(tweety)" in enc.universe
        assert "ab_e1[tweety]" in enc.priority.indices
        parsed = parse_theory(print_theory(enc))
        assert parsed == enc
        assert circ_equivalent(t, parsed, project=t.universe)

    def test_drawn_fixtures_keep_the_projected_models(self):
        # Each variant that reproduces a case without fixtures also does
        # under every fixture set.
        report = abnormality_variant_report()
        rng = random.Random(401)
        for case in INHERITANCE_CASES:
            t = inheritance_theory(case)
            for _ in range(15):
                count = rng.randint(1, 2)
                fixtures = tuple(LabeledFormula(f"f{k}", random_formula(rng, t.universe)) for k in range(count))
                fixed = Theory(t.universe, t.base, t.defaults, t.priority, fixtures)
                for variant in AB_VARIANTS:
                    if report[variant][case]:
                        enc = encode_abnormality(fixed, variant)
                        assert circ_equivalent(fixed, enc, project=t.universe), (case, variant, fixtures)
