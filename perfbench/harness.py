"""One run of one workload: inputs, checked pass, parity, timed passes, metrics."""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import calib
import cliparity
import gen
import layers
import reference
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_mb": "MB",
    "setup_s": "s",
}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, u in (("_ms", "ms"), ("_per_s", "1/s"), ("_pct", "%")):
        if name.endswith(suffix):
            return u
    return "count"


class Run:
    """One workload: its inputs, the kernel clock, and what went wrong."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed = workload, seed
        self.tasks = gen.GENERATORS[workload](seed, tiny)
        self.clock = calib.Clock()
        self.errors: list[str] = []     # wrong answers, failed controls, parity
        self.failures: list[str] = []   # operations that raised
        self.attempted = 0
        self.refs: list = []

    def run_pass(self, tracer=None) -> list[tuple]:
        """One timed pass over every task: (start, seconds, layer self
        times, counts) per task. The first pass checks every answer against
        the oracle, outside the timed calls, and keeps its signatures; later
        passes must reproduce them."""
        checking = not self.refs
        first: dict = {}
        gc.collect()
        rows = []
        for k, task in enumerate(self.tasks):
            self.clock.tick()
            run = W.RUN[task.kind]
            captured: list = []
            self.attempted += 1
            with layers.capture_preferred(captured) if checking else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    r = run(task)
                except Exception as e:  # counted as a failed operation; the pass goes on
                    r = e
                dt = time.perf_counter() - t0
            rows.append((t0, dt) + (tracer.take() if tracer else (None, None)))
            if isinstance(r, Exception):
                self.failures.append(f"{task.kind}: {type(r).__name__}: {r}")
                sig = None
            else:
                sig = W.signature(task.kind, r)
            if checking:
                if sig is not None:
                    for problem in W.CHECK[task.kind](task, r, captured):
                        self.errors.append(f"{task.kind}: {problem}")
                    first.setdefault(task.kind, (task, r, captured))
                self.refs.append(sig)
            elif sig is not None and sig != self.refs[k]:
                self.errors.append(f"{task.kind}: a timed pass gave another answer than the checked pass")
            del r
        if checking:
            for name in W.controls(first):
                self.errors.append(f"negative control passed its checker: {name}")
        return rows

    def peak_mb(self) -> float:
        """Highest tracemalloc peak of one task of the memory sample, in MB.
        Each distinct input runs three times and the smaller of the last two
        peaks counts: the first run fills interpreter caches and free lists,
        and a few kilobytes still move from run to run. The cyclic collector
        is off while a task runs, so the peak does not depend on when it
        would have run."""
        sample = {(t.kind, t.text): t for t in self.tasks if t.mem}.values()
        tracemalloc.start()
        peak = 0
        try:
            for task in sample:
                peaks = []
                for _ in range(3):
                    gc.collect()
                    gc.disable()
                    held = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    r = W.RUN[task.kind](task)
                    peaks.append(tracemalloc.get_traced_memory()[1] - held)
                    del r
                    gc.enable()
                peak = max(peak, min(peaks[1:]))
        finally:
            gc.enable()
            tracemalloc.stop()
        return peak / 1e6

    def scaled(self, rows) -> list[float]:
        return [dt * self.clock.factor(t0, t0 + dt) for t0, dt, *_ in rows]


def _end_to_end(run: Run, seconds: float, setup: float) -> tuple[dict, dict]:
    run.clock.sample()
    deadline = time.perf_counter() + seconds
    passes = [run.run_pass()]
    while time.perf_counter() < deadline:
        passes.append(run.run_pass())
    run.clock.sample()
    peak = run.peak_mb()
    rows = [row for p in passes for row in p]
    scaled = run.scaled(rows)
    raw = [dt for _, dt, *_ in rows]
    metrics = {
        "tasks_per_s": len(scaled) / sum(scaled),
        "task_p50_ms": 1e3 * statistics.median(scaled),
        "task_p90_ms": 1e3 * statistics.quantiles(scaled, n=10, method="inclusive")[-1],
        "peak_mb": peak,
        "setup_s": setup,
    }
    detail = {
        "passes": len(passes),
        "tasks_per_pass": len(run.tasks),
        "raw_tasks_per_s": len(raw) / sum(raw),
        "raw_task_p50_ms": 1e3 * statistics.median(raw),
        "calib_ms": run.clock.median_ms(),
        "calib_samples": len(run.clock.values),
    }
    return metrics, detail


def _per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    tracer = layers.Tracer()
    run.clock.sample()
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while not plain or not traced or time.perf_counter() < deadline:
        plain.append(run.run_pass())
        with tracer.patch():
            traced.append(run.run_pass(tracer))
    run.clock.sample()
    counts = []
    times = []
    for rows in traced:
        factors = [run.clock.factor(t0, t0 + dt) for t0, dt, _, _ in rows]
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for f, (_, _, self_s, c) in zip(factors, rows):
            for name, s in self_s.items():
                total[name] = total.get(name, 0.0) + 1e3 * s * f
            for name, v in c.items():
                count[name] = count.get(name, 0) + v
        times.append(total)
        counts.append(count)
    if any(c != counts[0] for c in counts):
        run.errors.append("per-layer counts differ between traced passes")
    metrics: dict[str, float] = {}
    for name in sorted(set(layers.LAYERS.values())):
        metrics[f"{name}_ms"] = statistics.median(t.get(name, 0.0) for t in times)
    for name in layers.COUNTS:
        metrics[name] = counts[0].get(name, 0)
    plain_total = statistics.median(sum(run.scaled(p)) for p in plain)
    traced_total = statistics.median(sum(run.scaled(p)) for p in traced)
    raw = [dt for p in plain for _, dt, _, _ in p]
    metrics["bench.calib_ms"] = run.clock.median_ms()
    metrics["bench.wall_tasks_per_s"] = len(raw) / sum(raw)
    metrics["bench.trace_overhead_pct"] = 100.0 * (traced_total / plain_total - 1.0)
    detail = {"plain_passes": len(plain), "traced_passes": len(traced), "reference": reference.rows(run.workload, run.clock)}
    return metrics, detail


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    marks = [("start", time.perf_counter())]
    run = Run(workload, seed, tiny)
    if calib.kernel() != calib.CHECKSUM:
        run.errors.append("calibration kernel changed: its reference time no longer holds")
    marks.append(("generate", time.perf_counter()))
    setup, setup_raw = cliparity.import_seconds(ROOT, run.clock)
    marks.append(("setup", time.perf_counter()))
    if trace:
        metrics, detail = _per_layer(run, seconds)
    else:
        metrics, detail = _end_to_end(run, seconds, setup)
    marks.append(("measure", time.perf_counter()))
    for problem in cliparity.parity(ROOT, workload, run.tasks, seed, OUT / "parity"):
        run.errors.append(f"cli parity: {problem}")
    marks.append(("parity", time.perf_counter()))
    detail.update(
        setup_s=setup, setup_raw_s=setup_raw, errors=run.errors, failures=run.failures[:20],
        phase_s={name: t - prev for (_, prev), (name, t) in zip(marks, marks[1:])},
    )
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "seconds": seconds, **result, "detail": detail}, indent=1))
    for e in (run.errors + run.failures)[:20]:
        print(f"{workload}: {e}", file=sys.stderr)
    return result


