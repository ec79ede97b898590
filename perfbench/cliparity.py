"""Subprocess side of the benchmark: import time and CLI parity.

Both run ``parapri`` from the checkout's ``src`` in fresh interpreters, one
at a time, and wait for each to end.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import parapri.circumscription as C
import parapri.formula as F
import parapri.lp as LP
import parapri.theory as T
import parapri.transform as X

import calib
import gen

IMPORT_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import parapri.cli\n"
    "sys.stdout.write(repr(time.perf_counter() - t))\n"
)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_seconds(root: Path, clock: calib.Clock, repeats: int = 9) -> tuple[float, float]:
    """Median (scaled, raw) time to import parapri.cli in a fresh interpreter;
    each import is scaled by the kernel samples taken just before and after."""

    def once() -> float:
        p = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=_env(root), cwd=root,
                           capture_output=True, text=True, timeout=60, check=True)
        return float(p.stdout)

    once()  # the first import may write bytecode caches
    scaled, raw = [], []
    for _ in range(repeats):
        before = clock.sample()
        s = once()
        after = clock.sample()
        raw.append(s)
        scaled.append(s * calib.REFERENCE_S / ((before + after) / 2))
    return statistics.median(scaled), statistics.median(raw)


def cli(root: Path, *args: str) -> tuple[int, str]:
    p = subprocess.run([sys.executable, "-m", "parapri.cli", *args], env=_env(root), cwd=root,
                       capture_output=True, text=True, timeout=120)
    return p.returncode, p.stdout.strip()


def _load(text: str):
    t = T.parse_theory(text)
    return T.ground(t) if isinstance(t, T.SchemaTheory) else t


def _stats_lines(t) -> str:
    report = X.output_size(t.priority)
    lines = [f"defaults: {len(t.defaults)}"]
    lines += [f"m[{label}]: {m}" for label, m in report.m]
    lines += [
        f"max_m: {report.max_m}",
        f"size: {report.total}",
        f"top_heavy: {'yes' if report.top_heavy else 'no'}",
        f"classification: {T.classify_order(t.priority)}",
    ]
    return "\n".join(lines)


def answers(text: str, commands) -> dict[tuple, tuple[int, str]]:
    """In-process (exit code, output) of each CLI command on a theory text."""
    t = _load(text)
    out = {}
    for cmd in commands:
        if cmd[0] == "query":
            q = F.parse_formula(cmd[1])
            direct = C.skeptical_entails(t, q)
            via = C.skeptical_entails(X.transform_theory(t), q)
            out[cmd] = (0, "yes" if direct else "no") if direct == via else (3, "")
        elif cmd[0] == "models":
            out[cmd] = (0, "\n".join(C.format_model(m) for m in C.preferred_models(t)))
        elif cmd[0] == "check-equiv":
            member = X.transform_canonical(t.defaults, t.priority)
            if "--self-test-corrupt" in cmd:
                member = X.TransformOutput(tuple(T.LabeledFormula(l, F.Not(f)) for l, f in member.defaults),
                                          member.provenance)
            ok = C.circ_equivalent(t, X.parallel_theory(t, member))
            out[cmd] = (0 if ok else 1, "equivalent" if ok else "not-equivalent")
        elif cmd[0] == "stats":
            out[cmd] = (0, _stats_lines(t))
        elif cmd[0] == "transform":
            out[cmd] = (0, str(X.output_size(t.priority).total))
    return out


ALL = (("models",), ("check-equiv",), ("stats",), ("transform", "--size-only"))


def _plan(workload: str, tasks, seed: int):
    """(file name, text, {command: in-process (exit code, output)}) for a
    few of the workload's inputs."""
    if workload == "query-dense":
        task = min(tasks, key=lambda t: t.size)
        return [("query.thy", task.text, answers(task.text, (("query", task.info["query_text"]),) + ALL))]
    if workload == "transform-wide":
        tiny = gen.transform_wide(seed, tiny=True)
        chain = min((t for t in tiny if t.kind == "chain"), key=lambda t: t.size)
        program = min((t for t in tiny if t.kind == "program"), key=lambda t: t.size)
        encoded = T.print_theory(LP.encode_stratified(LP.parse_program(program.text)))
        q = ("query", chain.info["universe"][0])
        return [
            ("chain.thy", chain.text, answers(chain.text, (q,) + ALL)),
            ("program.lp", program.text, {("encode-lp",): (0, encoded.strip())}),
        ]
    if workload == "schema-order":
        task = min(tasks, key=lambda t: t.size)
        small = gen.tiny_schema(seed)
        q = ("query", _load(small).universe[0])
        return [
            ("schema.thy", task.text, answers(task.text, ALL[2:])),
            ("tiny-schema.thy", small, answers(small, (q,) + ALL)),
        ]
    circ = next(t for t in tasks if t.kind == "circ")
    pre = next(t for t in tasks if t.kind == "preorder")
    control = gen.inheritance_task(0).text
    return [
        ("circ.thy", circ.text, answers(circ.text, (("query", circ.info["universe"][0]),) + ALL)),
        ("preorder.thy", pre.text, {("check-equiv", "--preorder", "--all", "64"): (0, "equivalent")}),
        # Negative control: negated outputs must not pass as equivalent.
        ("corrupt.thy", control, {("check-equiv", "--self-test-corrupt"): (1, "not-equivalent")}),
    ]


def parity(root: Path, workload: str, tasks, seed: int, out_dir: Path) -> list[str]:
    """Run each planned command as a subprocess, one at a time; report every
    exit code or output that differs from the in-process answer."""
    out_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    for name, text, want in _plan(workload, tasks, seed):
        path = out_dir / f"{workload}-{name}"
        path.write_text(text)
        for cmd, expected in want.items():
            argv = [cmd[0], str(path), *cmd[1:]]
            got = cli(root, *argv)
            if got != expected:
                errors.append(f"parapri {' '.join(argv)}: exit {got[0]}, expected exit {expected[0]}"
                              + ("" if got[1] == expected[1] else "; output differs from the in-process answer"))
    return errors
