#!/usr/bin/env python3
"""Benchmark of the solve -> adapt -> balance cycle.

    python3 perfbench/run.py --workload moving_front --seed 0 --seconds 50 --trace 0

Runs passes of one workload (see ``workloads.py``), each in a fresh process,
for ``--seconds`` seconds, checks every step's outputs and prints the
metrics, one per line, then as the last line one JSON object::

    {"correct": ..., "attempted": <steps>, "failed": <failed steps>, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (no probes installed).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; the traced passes' spans are written to
``perfbench/out/<workload>-seed<seed>.spans.json``.

The seed fixes the inputs: pass ``j`` runs sub-seed ``seed * K + j mod K``,
where ``K`` is the workload's sub-seed count.  Balance quality is the
interquartile mean over the ``K`` sub-seeds, so one unlucky partitioner seed
does not decide a run, and step timings are per-step medians over all
passes.  Every sub-seed seen twice must reproduce its balance quality (and,
on the virtual backend, its modelled seconds) exactly; a mismatch is a
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload -> (sub-seeds per seed, runs on the virtual backend).  One
#: solver's edge-cut and remap volume swing with its partitioner seed, so the
#: single-solver workload averages over many sub-seeds.  The sweep sums 42
#: solvers per pass; its five sub-seeds steady the slowest (P=64) steps' wall.
WORKLOADS = {
    "figure_sweep": (5, True),
    "moving_front": (12, False),
}
#: a run starts no pass that could end after this many seconds
HARD_CAP_S = 150.0
#: the traced run's layer spans plus framework self time must cover this
#: share of the externally timed step wall
MIN_COVERAGE = 0.99

VIRTUAL = ("marking", "repartition", "gather_scatter", "reassign", "remap",
           "subdivision")
#: StepReport field read for each virtual.* phase
VIRTUAL_FIELD = {"repartition": "partition"}


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one ``BENCHMARK.json`` metric list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _pass(workload: str, subseed: int, traced: bool, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), workload,
         str(subseed), "1" if traced else "0"],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _fingerprint(p: dict, virtual_backend: bool) -> tuple:
    out = (p["imbalance_final"], p["edgecut_final"], p["remap_elements"],
           p["triggered"], p["accepted"])
    if virtual_backend:
        out += tuple(p["virtual"][f] for f in sorted(p["virtual"]))
    return out


def _median(values):
    return float(statistics.median(values))


def _interquartile_mean(values) -> float:
    """Mean of the middle half: steadier than the median on the lumpy
    per-seed remap volumes, and as blind as it to a few outliers."""
    x = sorted(values)
    k = len(x) // 4
    return statistics.fmean(x[k:len(x) - k])


def _typical_steps(passes: list[dict]) -> list[float]:
    """Median wall of each step over the passes.  Host slowdowns come in
    bursts of a fraction of a second to a few seconds; a per-step median
    drops the passes a burst hit, where a per-pass total would keep it."""
    return [_median(walls) for walls in zip(*(p["step_walls"] for p in passes))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    n_sub, virtual_backend = WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    # untraced runs need each sub-seed once plus one repeat for the
    # determinism check; traced runs pair every traced pass with an
    # untraced pass of the same sub-seed
    min_passes = 2 if traced_run else n_sub + 1

    passes: list[tuple[int, bool, dict]] = []
    attempted = failed = 0
    seen: dict[int, tuple] = {}
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed >= args.seconds:
            break
        if elapsed + 1.5 * longest > HARD_CAP_S:
            break
        k = len(passes)
        j = k // 2 if traced_run else k
        subseed = args.seed * n_sub + j % n_sub
        traced = traced_run and k % 2 == 1
        t0 = time.perf_counter()
        try:
            p = _pass(args.workload, subseed, traced, HARD_CAP_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"perfbench: {args.workload} sub-seed {subseed}: {exc}",
                  file=sys.stderr)
            attempted += 1
            failed += 1
            break
        longest = max(longest, time.perf_counter() - t0)
        passes.append((subseed, traced, p))
        attempted += len(p["step_walls"])
        failed += p["failed_steps"]
        for msg in p["failures"]:
            print(f"perfbench: sub-seed {subseed}: {msg}", file=sys.stderr)
        if traced and p["coverage"] < MIN_COVERAGE:
            failed += 1
            print(f"perfbench: sub-seed {subseed}: spans cover only "
                  f"{p['coverage']:.4f} of the step wall", file=sys.stderr)
        fp = _fingerprint(p, virtual_backend)
        if seen.setdefault(subseed, fp) != fp:
            failed += 1
            print(f"perfbench: sub-seed {subseed}: outputs differ between "
                  f"passes of one seed: {seen[subseed]} vs {fp}", file=sys.stderr)

    values: dict[str, float] = {}
    plain = [p for _, traced, p in passes if not traced]
    if plain and not traced_run:
        # quality: over sub-seeds, each sub-seed's first pass
        first = {}
        for subseed, _, p in passes:
            first.setdefault(subseed, p)
        steps = _typical_steps(plain)
        values.update({
            "setup_s": _median(p["setup_s"] for p in plain),
            "wall_s": sum(steps),
            "step_wall_s_p50": _median(steps),
            "step_wall_s_max": max(steps),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
        })
        for name in ("imbalance_final", "edgecut_final", "remap_elements"):
            values[name] = _interquartile_mean(p[name] for p in first.values())
    traced_passes = [p for _, traced, p in passes if traced]
    if traced_passes:
        values.update({name: _median(p["layers"][name] for p in traced_passes)
                       for name in traced_passes[0]["layers"]})
        for phase in VIRTUAL:
            field = VIRTUAL_FIELD.get(phase, phase)
            values[f"virtual.{phase}_s"] = _median(
                p["virtual"][field] for p in traced_passes)
        triggered = sum(p["triggered"] for p in traced_passes)
        accepted = sum(p["accepted"] for p in traced_passes)
        values["balance.accept_ratio"] = accepted / triggered if triggered else 0.0
        values["trace.overhead_ratio"] = (sum(_typical_steps(traced_passes))
                                          / sum(_typical_steps(plain)))
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "step"],
                       "passes": [{"subseed": s, "spans": p["spans"]}
                                  for s, traced, p in passes if traced]}, fh)

    metrics = {}
    if values:
        declared = _declared("per_layer" if traced_run else "end_to_end")
        if set(values) != set(declared):
            raise SystemExit(f"perfbench: measured metrics {sorted(values)} do "
                             f"not match BENCHMARK.json {sorted(declared)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(passes),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if passes else 1


if __name__ == "__main__":
    sys.exit(main())
