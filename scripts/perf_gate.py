#!/usr/bin/env python3
"""Perf-regression gate for the pipeline and serving benchmarks.

Both modes run through ONE gate function; the only difference between
them is a declarative spec (default file paths, verdict path, and the
list of guarded metrics with their baseline JSON keys).

Default (pipeline) mode compares freshly produced pipeline reports
(``results/BENCH_pipeline.json`` unless run reports are named) against the
committed baseline ``results/BENCH_baseline.json`` (same reduced CI size):

* ``phases_serial['tsg.correlation'].secs`` — the tiled correlation
  kernel; a revert to row-by-row sequential sums roughly quadruples it.
* ``rounds_per_sec`` — end-to-end throughput of the parallel exact pass,
  which catches regressions outside the correlation phase.
* ``phases_incremental['sliding.slide'].secs`` — the incremental engine's
  blocked slide kernel; a revert to the per-pair ``dot8`` fold roughly
  doubles it.
* ``incremental_rounds_per_sec`` — end-to-end throughput of the
  incremental pass.
* ``phases_serial['tsg.select'].secs`` and
  ``phases_incremental['tsg.select'].secs`` — top-k neighbour selection
  and TSG assembly under each engine; a revert to the per-cell k-slot
  insertion scan with ``has_edge``-checked assembly trips both.
* ``phases_incremental['sliding.matrix'].secs`` — the dense incremental
  finish into the packed correlation triangle (AVX rows, each folded into
  the per-vertex block maxima as it is written; no mirror); a revert to
  the scalar per-cell finish trips it.
* ``phases_serial['graph.louvain'].secs`` and
  ``phases_incremental['graph.louvain'].secs`` — Louvain on the
  detector's reused CSR workspace under each engine.
* ``phases_masked['masked.slide'].secs`` — the pairwise-deletion slide
  of the masked pass (holes shared across sensors), which computes five
  of its six co-moment deltas once per mask class; a revert to six
  blocked folds per slide trips it.

``--serve`` mode compares ``results/BENCH_serve.json`` (written by the
loadgen at the reduced CI profile) against the committed
``results/BENCH_serve_baseline.json``:

* ``push_latency_p99_secs`` — the server's own frame-in→reply-ready p99,
  the latency promise of the poller-driven serving core.
* ``ticks_per_sec`` — aggregate ingest throughput across all sessions.

The gated phases last milliseconds at the reduced size, so one run is
noisy. Given several run reports, the gate compares each metric's median
over them; ``--write-baseline`` writes that per-metric median report as
the new baseline instead of gating (how ``results/BENCH_baseline.json`` is
regenerated, from eleven runs: a five-run median can land low enough to
fail its own commit).

Tolerance is 25% by default (CI runners are noisy; the regressions these
gates are for are 2–4×) and can be overridden via ``CAD_PERF_GATE_TOL``.
On failure every offending metric is named with its regression ratio and
the baseline key it was compared against. A machine-readable verdict is
always written (``results/PERF_GATE.json``, or
``results/PERF_GATE_SERVE.json`` in serve mode) so CI can upload it as an
artifact whether the gate passes or fails.

Usage: scripts/perf_gate.py [--serve] [--baseline FILE] [--write-baseline]
                            [run.json ...]
Exit status: 0 pass, 1 regression, 2 missing/corrupt input.
"""

import json
import os
import statistics
import sys


def phase_secs(report, name, section="phases_serial"):
    phases = report.get(section, {})
    entry = phases.get(name)
    if entry is None:
        raise KeyError(f"{section}[{name!r}] missing from report")
    return float(entry["secs"])


def top_level(report, key):
    if key not in report:
        raise KeyError(f"{key!r} missing from report")
    return float(report[key])


def flight_ratio(report):
    flight = report.get("flight")
    if not isinstance(flight, dict) or "p99_ratio" not in flight:
        raise KeyError("flight.p99_ratio missing from report")
    return float(flight["p99_ratio"])


# Each guarded metric: (baseline_key, extractor, higher_is_better). The
# baseline_key is the JSON path the number came from — it is what a
# failure message points at, so keep it copy-pasteable into jq/python.
GATES = {
    "perf": {
        "current_default": "results/BENCH_pipeline.json",
        "baseline_default": "results/BENCH_baseline.json",
        "verdict_path": "results/PERF_GATE.json",
        "metrics": [
            (
                "phases_serial['tsg.correlation'].secs",
                lambda r: phase_secs(r, "tsg.correlation"),
                False,
            ),
            ("rounds_per_sec", lambda r: top_level(r, "rounds_per_sec"), True),
            # The incremental engine's blocked slide kernel; a revert to the
            # per-pair dot8 fold roughly doubles it.
            (
                "phases_incremental['sliding.slide'].secs",
                lambda r: phase_secs(r, "sliding.slide", "phases_incremental"),
                False,
            ),
            (
                "incremental_rounds_per_sec",
                lambda r: top_level(r, "incremental_rounds_per_sec"),
                True,
            ),
            # Top-k selection (bar scan, candidate sort, degree-sized
            # assembly) under both engines.
            (
                "phases_serial['tsg.select'].secs",
                lambda r: phase_secs(r, "tsg.select"),
                False,
            ),
            (
                "phases_incremental['tsg.select'].secs",
                lambda r: phase_secs(r, "tsg.select", "phases_incremental"),
                False,
            ),
            # The dense incremental matrix finish.
            (
                "phases_incremental['sliding.matrix'].secs",
                lambda r: phase_secs(r, "sliding.matrix", "phases_incremental"),
                False,
            ),
            # Louvain on the detector's reused workspace, both engines.
            (
                "phases_serial['graph.louvain'].secs",
                lambda r: phase_secs(r, "graph.louvain"),
                False,
            ),
            (
                "phases_incremental['graph.louvain'].secs",
                lambda r: phase_secs(r, "graph.louvain", "phases_incremental"),
                False,
            ),
            # The masked slide: per-class tables plus one fold.
            (
                "phases_masked['masked.slide'].secs",
                lambda r: phase_secs(r, "masked.slide", "phases_masked"),
                False,
            ),
        ],
    },
    "perf-serve": {
        "current_default": "results/BENCH_serve.json",
        "baseline_default": "results/BENCH_serve_baseline.json",
        "verdict_path": "results/PERF_GATE_SERVE.json",
        "metrics": [
            (
                "push_latency_p99_secs",
                lambda r: top_level(r, "push_latency_p99_secs"),
                False,
            ),
            ("ticks_per_sec", lambda r: top_level(r, "ticks_per_sec"), True),
            # Flight-recorder observability tax: client push p99 with the
            # recorder on vs off, from the loadgen's paired A/B arms. The
            # committed baseline pins 1.0, so with the default 25%
            # tolerance the recorder may cost at most 25% on push p99.
            ("flight.p99_ratio", flight_ratio, False),
        ],
    },
}


def median_report(reports):
    """One report whose every numeric leaf is the median of that leaf over
    ``reports``; every other leaf is the first report's."""
    first = reports[0]
    if isinstance(first, dict):
        return {
            key: median_report([r[key] for r in reports if isinstance(r, dict) and key in r])
            for key in first
        }
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(reports)
    return first


def load_runs(paths):
    reports = []
    for path in paths:
        with open(path) as f:
            reports.append(json.load(f))
    return median_report(reports)


def regression_ratio(cur, base, higher_is_better):
    """> 1.0 means "worse than baseline", in both orientations."""
    if base <= 0.0:
        return float("inf")
    if higher_is_better:
        return base / cur if cur > 0.0 else float("inf")
    return cur / base


def run_gate(gate_name, spec, current_paths, baseline_path, tolerance):
    """The single gate path both modes share. Returns the exit status."""
    verdict = {
        "gate": gate_name,
        "current": current_paths,
        "baseline": baseline_path,
        "tolerance": tolerance,
        "checks": [],
        "pass": False,
    }

    try:
        current = load_runs(current_paths)
        with open(baseline_path) as f:
            baseline = json.load(f)
        checks = [
            (key, extract(current), extract(baseline), higher_is_better)
            for key, extract, higher_is_better in spec["metrics"]
        ]
    except (OSError, ValueError, KeyError) as err:
        verdict["error"] = f"{type(err).__name__}: {err}"
        write_verdict(verdict, spec["verdict_path"])
        print(f"{gate_name}: cannot compare: {verdict['error']}", file=sys.stderr)
        return 2

    failures = []
    for key, cur, base, higher_is_better in checks:
        ratio = regression_ratio(cur, base, higher_is_better)
        passed = ratio <= 1.0 + tolerance
        if not passed:
            failures.append((key, ratio))
        verdict["checks"].append(
            {
                "metric": key,
                "current": cur,
                "baseline": base,
                "regression_ratio": ratio,
                "pass": passed,
            }
        )
        state = "ok" if passed else "REGRESSION"
        print(
            f"{gate_name}: {key}: current={cur:.6g} baseline={base:.6g} "
            f"ratio={ratio:.3f} (tol {1.0 + tolerance:.2f}) {state}"
        )

    verdict["pass"] = not failures
    write_verdict(verdict, spec["verdict_path"])
    if failures:
        # Name every offender with its ratio and the baseline key it was
        # measured against — the failure line alone must be actionable.
        for key, ratio in failures:
            print(
                f"{gate_name}: FAIL — {key}: regression ratio {ratio:.3f} "
                f"exceeds tolerance {1.0 + tolerance:.2f} against "
                f"baseline[{key!r}] in {baseline_path}",
                file=sys.stderr,
            )
        print(f"{gate_name}: see {spec['verdict_path']}", file=sys.stderr)
        return 1
    print(f"{gate_name}: PASS")
    return 0


def write_verdict(verdict, path):
    os.makedirs("results", exist_ok=True)
    with open(path, "w") as f:
        json.dump(verdict, f, indent=2)
        f.write("\n")


def write_baseline(current_paths, baseline_path):
    try:
        report = load_runs(current_paths)
    except (OSError, ValueError) as err:
        print(f"cannot write baseline: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    with open(baseline_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote the median of {len(current_paths)} run(s) to {baseline_path}")
    return 0


def main(argv):
    args = list(argv[1:])
    gate_name = "perf"
    if "--serve" in args:
        args.remove("--serve")
        gate_name = "perf-serve"
    spec = GATES[gate_name]
    baseline_path = spec["baseline_default"]
    if "--baseline" in args:
        at = args.index("--baseline")
        if at + 1 >= len(args):
            print("--baseline needs a file", file=sys.stderr)
            return 2
        baseline_path = args.pop(at + 1)
        args.pop(at)
    rewrite = "--write-baseline" in args
    if rewrite:
        args.remove("--write-baseline")
    current_paths = args or [spec["current_default"]]
    if rewrite:
        return write_baseline(current_paths, baseline_path)
    tolerance = float(os.environ.get("CAD_PERF_GATE_TOL", "0.25"))
    return run_gate(gate_name, spec, current_paths, baseline_path, tolerance)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
