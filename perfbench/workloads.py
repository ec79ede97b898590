"""What each workload runs in parapri, and how its answers are checked.

A task runs what the CLI runs on one input, starting from the file text.
A checker compares the answers with the benchmark's own semantics in
``logic`` (never with parapri's truth tables) and returns a list of
problems, empty when the answers are right. ``controls`` feeds each checker
a corrupted answer and reports the controls whose checker did not object.
"""

from __future__ import annotations

import itertools

import parapri.circumscription as C
import parapri.formula as F
import parapri.lp as LP
import parapri.preorder as PO
import parapri.specificity as S
import parapri.theory as T
import parapri.transform as X

import logic as L


# ---------------------------------------------------------------- tasks

def run_query(task):
    t = T.parse_theory(task.text)
    q = F.parse_formula(task.info["query_text"])
    direct = C.skeptical_entails(t, q)
    out = X.transform_canonical(t.defaults, t.priority)
    via = C.skeptical_entails(X.parallel_theory(t, out), q)
    return direct, via


def _wide_tail(t, out):
    digest = ones = 0
    for _, f in out.defaults:
        m = F.truth_mask(f, t.universe)
        digest ^= m
        ones += m.bit_count()
    return t, out, digest, ones, T.print_theory(X.parallel_theory(t, out))


def run_chain(task):
    t = T.parse_theory(task.text)
    return _wide_tail(t, X.transform_canonical(t.defaults, t.priority))


def run_program(task):
    t = LP.encode_stratified(LP.parse_program(task.text))
    return _wide_tail(t, X.transform_canonical(t.defaults, t.priority))


def run_schema(task):
    t = T.ground(T.parse_theory(task.text))
    t.priority.dominators_map
    report = X.output_size(t.priority)
    return report.m, report.total, report.top_heavy, T.classify_order(t.priority)


def run_preorder(task):
    t = T.parse_theory(task.text)
    spec = PO.PreorderSpec.of(t)
    members = X.transform_all(t.defaults, t.priority, limit=64)
    answers = [
        C.preorder_equivalent(spec, PO.PreorderSpec.parallel(m.defaults), t.universe) for m in members
    ]
    return members, answers


def run_circ(task):
    t = T.parse_theory(task.text)
    out = X.transform_canonical(t.defaults, t.priority)
    return C.circ_equivalent(t, X.parallel_theory(t, out))


def run_lp(task):
    t = LP.encode_stratified(LP.parse_program(task.text))
    return C.preferred_models(T.parse_theory(T.print_theory(t)))


def run_prune(task):
    t = T.parse_theory(task.text)
    out = X.transform_canonical(t.defaults, t.priority)
    return S.prune_redundant(out, t.base, t.universe, k=2)


RUN = {
    "query": run_query, "chain": run_chain, "program": run_program, "schema": run_schema,
    "preorder": run_preorder, "circ": run_circ, "lp": run_lp, "prune": run_prune,
}


def signature(kind, r):
    """What a timed pass must reproduce exactly from the checked pass."""
    if kind in ("chain", "program"):
        return r[2:]
    if kind == "preorder":
        return tuple(r[1])
    if kind == "lp":
        return tuple(m.index for m in r)
    if kind == "prune":
        return tuple(label for label, _ in r.kept)
    return r


# ---------------------------------------------------------------- checkers

def _above(info):
    return L.closure(len(info["defaults"]), info["edges"])


def _oracle(info):
    return L.preferred(info["universe"], info["base"], info["defaults"], _above(info), info["fixtures"])


def _holds_everywhere(universe, formula, indices) -> bool:
    fn = L.vector_function(universe, (formula,), ())
    return all(fn(i)[0] for i in indices)


def check_query(task, r, captured):
    info = task.info
    pref = _oracle(info)
    answer = _holds_everywhere(info["universe"], info["query"], pref)
    errors = []
    if r != (answer, answer):
        errors.append(f"answers (direct, transform) = {r}, oracle says {answer}")
    if captured != [pref, pref]:
        errors.append("preferred models differ from the oracle")
    return errors


def _wide_expectation(task):
    info = task.info
    if task.kind == "chain":
        universe, labels, defaults = info["universe"], info["labels"], info["defaults"]
        above = _above(info)
    else:
        universe, levels = info["universe"], info["levels"]
        labels = [f"min_{a}" for a in universe]
        defaults = [L.neg(L.atom(a)) for a in universe]
        above = [sum(1 << j for j, b in enumerate(universe) if levels[b] < levels[a]) for a in universe]
    return universe, labels, defaults, above


def check_wide(task, r, captured):
    t, out, digest, ones, text = r
    universe, labels, defaults, above = _wide_expectation(task)
    expected = L.expected_transform(labels, defaults, above)
    errors = []
    size = sum(1 << a.bit_count() for a in above)
    if len(out.defaults) != size or len(expected) != size:
        errors.append(f"{len(out.defaults)} output formulas, expected sum 2^m = {size}")
    lines = text.splitlines()
    if lines[0] != "atoms: " + " ".join(universe):
        errors.append("printed universe differs")
    want = [f"default {w}: {L.text(f)}" for w, f, _, _ in expected]
    if [l for l in lines if l.startswith("default ")] != want:
        errors.append("printed outputs are not the right-nested forms over the canonical orderings")
    if any(l.startswith("prefer ") for l in lines):
        errors.append("the parallel theory prints priorities")
    if task.info.get("parse_back") and T.parse_theory(text) != X.parallel_theory(t, out):
        errors.append("printed text does not parse back to the parallel theory")
    cols = dict(zip(universe, L.columns(len(universe))))
    full = (1 << (1 << len(universe))) - 1
    src = [L.mask(f, cols, full) for f in defaults]
    sequences = [L.canonical_sequence(above, i) for i in range(len(above))]
    fold_digest = fold_ones = 0
    for _, _, i, bits in expected:
        acc = src[i]
        seq = sequences[i]
        for k in range(len(seq) - 1, -1, -1):
            acc = src[seq[k]] & acc if bits[k] == "1" else src[seq[k]] | acc
        fold_digest ^= acc
        fold_ones += acc.bit_count()
    if (digest, ones) != (fold_digest, fold_ones):
        errors.append("truth masks differ from the and/or fold of the source masks")
    return errors


def check_schema(task, r, captured):
    m, total, top_heavy, cls = r
    info = task.info
    want = []
    for j, a in enumerate(info["arity"]):
        for combo in itertools.product(info["domain"], repeat=a):
            want.append((f"s{j}[{','.join(combo)}]", info["m"][j]))
    errors = []
    if tuple(m) != tuple(want):
        errors.append("per-default dominator counts differ from the generated shape")
    if total != sum(1 << v for _, v in want) or top_heavy != any(v > 10 for _, v in want):
        errors.append("output size or top-heaviness differs from sum 2^m")
    offsets = list(itertools.accumulate(info["sizes"], initial=0))
    instances = [range(offsets[j], offsets[j + 1]) for j in range(len(info["sizes"]))]
    grounded = [(a, b) for hi, lo in info["edges"] for a in instances[hi] for b in instances[lo]]
    mine = L.classify(L.closure(len(want), grounded))
    if cls != info["expected"] or mine != info["expected"]:
        errors.append(f"classification {cls!r}, own classifier {mine!r}, generated {info['expected']!r}")
    return errors


def _member_formulas(info, member, above):
    """The benchmark's own formulas for a transform member, after checking
    that each provenance sequence is a descending order of the dominators."""
    labels, defaults = info["labels"], info["defaults"]
    formulas = []
    for (label, f), p in zip(member.defaults, member.provenance):
        i = labels.index(p.source)
        seq = [labels.index(s) for s in p.sigma]
        if not L.is_descending(above, i, seq):
            return None
        g = L.output_formula(defaults, seq, p.bits, i)
        if F.to_text(f) != L.text(g):
            return None
        formulas.append(g)
    return formulas


def check_preorder(task, r, captured):
    members, answers = r
    info = task.info
    above = _above(info)
    errors = []
    ways = 1
    for i in range(len(above)):
        ways *= L.count_descending(above, i)
    if len(members) != min(64, ways):
        errors.append(f"{len(members)} members, expected {min(64, ways)}")
    for k, (member, answer) in enumerate(zip(members, answers)):
        formulas = _member_formulas(info, member, above)
        if formulas is None:
            errors.append(f"member {k} is not built over descending orders")
            continue
        agree = L.preorders_agree(info["universe"], info["defaults"], above, formulas, [0] * len(formulas))
        if not (answer is agree is True):
            errors.append(f"member {k}: preorder_equivalent says {answer}, oracle says {agree}")
    return errors


def check_circ(task, r, captured):
    info = task.info
    above = _above(info)
    pref = _oracle(info)
    outputs = [f for _, f, _, _ in L.expected_transform(info["labels"], info["defaults"], above)]
    pref_parallel = L.preferred(info["universe"], info["base"], outputs, [0] * len(outputs), info["fixtures"])
    errors = []
    if not (r is True and pref == pref_parallel):
        errors.append(f"circ_equivalent says {r}, oracle sets equal: {pref == pref_parallel}")
    if captured != [pref, pref_parallel]:
        errors.append("preferred models differ from the oracle")
    return errors


def check_lp(task, r, captured):
    info = task.info
    want = L.least_model(info["clauses"], info["levels"], info["universe"])
    if list(r.universe) != info["universe"]:
        return ["universe is not the first-mention order of the program"]
    got = [m.index for m in r]
    return [] if got == [want] else [f"preferred models {got}, least fixpoint model {want}"]


def check_prune(task, r, captured):
    info = task.info
    above = _above(info)
    expected = {w: f for w, f, _, _ in L.expected_transform(info["labels"], info["defaults"], above)}
    pref = _oracle(info)
    kept = []
    for label, f in r.kept:
        if label not in expected or F.to_text(f) != L.text(expected[label]):
            return [f"kept formula {label} is not a transform output"]
        kept.append(expected[label])
    errors = []
    if L.preferred(info["universe"], info["base"], kept, [0] * len(kept)) != pref:
        errors.append("the pruned parallel set has other preferred models than the prioritized theory")
    if captured != [pref, pref]:
        errors.append("preferred models seen during pruning differ from the oracle")
    return errors


CHECK = {
    "query": check_query, "chain": check_wide, "program": check_wide, "schema": check_schema,
    "preorder": check_preorder, "circ": check_circ, "lp": check_lp, "prune": check_prune,
}


# ---------------------------------------------------------------- negative controls

def _flip(index_set) -> frozenset:
    return index_set ^ {min(index_set, default=0)}


def controls(first: dict) -> list[str]:
    """Names of the controls whose checker accepted a corrupted answer;
    ``first`` maps a task kind to its first (task, answer, captured)."""
    failed = []

    def expect_rejected(name, kind, r, captured):
        task = first[kind][0]
        if not CHECK[kind](task, r, captured):
            failed.append(name)

    for kind in ("query", "circ", "prune"):
        if kind in first:
            task, r, captured = first[kind]
            expect_rejected(f"{kind}: flipped preferred model", kind, r, [_flip(captured[0])] + captured[1:])
    if "lp" in first:
        task, r, captured = first["lp"]
        model = F.Interpretation.from_index(r.universe, r.models[0].index ^ 1)
        expect_rejected("lp: flipped preferred model", "lp", C.PreferredModelSet(r.universe, (model,)), captured)
    for kind in ("chain", "program"):
        if kind in first:
            task, (t, out, *_), captured = first[kind]
            (label, f), rest = out.defaults[0], out.defaults[1:]
            corrupt = X.TransformOutput((T.LabeledFormula(label, F.Not(f)),) + rest, out.provenance)
            expect_rejected(f"{kind}: negated output formula", kind, _wide_tail(t, corrupt), captured)
    if "schema" in first:
        task, (m, total, top_heavy, cls), captured = first["schema"]
        wrong = ((m[0][0], m[0][1] + 1),) + tuple(m[1:])
        expect_rejected("schema: wrong dominator count", "schema", (wrong, total, top_heavy, cls), captured)
    if "preorder" in first:
        task, (members, answers), captured = first["preorder"]
        expect_rejected("preorder: flipped answer", "preorder", (members, [not answers[0]] + answers[1:]), captured)
    return failed
