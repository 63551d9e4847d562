"""The serving benchmark: one command, four pinned workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-swing --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload untraced and traced in alternation and prints the
per-layer metrics and the self-time table (with its ``unattributed``
residual row).  Every served allocation is checked against an
independently computed channel (see ``check.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Human-readable lines, the seed, each
scenario's workload digest and the environment fingerprint come before
it.  The program under test is imported from ``src/`` of the checkout
and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Printed beside the gated end-to-end metrics of ``BENCHMARK.json``.
#: The median and mean CPU cost and the wall-clock figures move with the
#: host's other load by more than a usable bound (see ``workloads.py``);
#: the rest are undefined, or 0, on some workload.
PRINTED_ONLY = {
    "cpu_ms_per_req_p50": "ms",
    "req_per_cpu_s": "1/s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "sustained_rps": "1/s",
    "failed_frac": "ratio",
    "degraded_frac": "ratio",
}


def declared(kind: str) -> dict:
    """``{name: unit}`` for the *kind* metrics listed in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def environment() -> dict:
    """Python, numpy and scipy versions, CPU count and model."""
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


#: One BLAS thread: the program's matrices are small, and an idle BLAS
#: helper thread spin-waits, which bills the process CPU time the gated
#: figures measure by an amount that tracks the host's other load.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse anything else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    if args.trace:
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in declared("per_layer").items()
        }
        print(f"{'per-layer metric':<34} {'value':>14}  unit")
        for name, metric in metrics.items():
            print(f"{name:<34} {metric['value']:>14.6g}  {metric['unit']}")
        rows = outcome.context.pop("self_ms_per_cycle", None) or outcome.context.pop(
            "self_ms_per_step", {}
        )
        print(f"{'layer self time (per traced unit)':<34} {'ms':>14}")
        for layer, ms in sorted(rows.items(), key=lambda item: item[0] == "unattributed"):
            print(f"{layer:<34} {ms:>14.3f}")
    else:
        outcome.e2e["peak_rss_mb"] = rss_mb
        gated = declared("end_to_end")
        print(f"{'end-to-end metric':<34} {'value':>14}  unit")
        for name, unit in {**gated, **PRINTED_ONLY}.items():
            value = outcome.e2e.get(name)
            shown = "-" if value is None else f"{value:.6g}"
            print(f"{name:<34} {shown:>14}  {unit}")
        metrics = {
            name: {"value": float(outcome.e2e[name]), "unit": unit}
            for name, unit in gated.items()
        }
    for rung in outcome.context.pop("ladder", []):
        print(f"ladder {json.dumps(rung, sort_keys=True)}")
    print(f"context {json.dumps(outcome.context, sort_keys=True)}")
    checks = outcome.checks
    print(f"checked {checks.checked} served allocations; {len(checks.violations)} violations")
    for violation in checks.violations[:20]:
        print(f"VIOLATION {violation}", file=sys.stderr)
    correct = checks.checked > 0 and not checks.violations
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.tally.sent,
        "failed": outcome.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
