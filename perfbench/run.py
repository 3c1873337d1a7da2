"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: the program under test is imported
from ``./src``, and a directory without it makes the run fail before any
measurement.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced stretches
of the timed phase and prints the per-layer metrics, the tracing overhead
among them.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import os
import sys
import time

from common import BLAS_VARS

# Pinned before numpy is imported anywhere in this process.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

from common import CheckFailed, Context, environment, process_start_perf  # noqa: E402

WORKLOADS = {
    "sweep": "wl_sweep",
    "serve_hot": "wl_serve",
    "serve_cluster": "wl_serve",
    "serve_live": "wl_live",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def expected_metrics(root: Path, traced: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    started_at = process_start_perf()
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/repro; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    expected = expected_metrics(root, bool(args.trace))

    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=root,
        src=src,
        workdir=workdir,
        started_at=started_at,
    )
    try:
        outcome = importlib.import_module(WORKLOADS[args.workload]).run(ctx)
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        ctx.tracer.unwrap_all()
        if ctx.trace:
            ctx.tracer.write(
                root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}.spans.jsonl"
            )
        shutil.rmtree(workdir, ignore_errors=True)

    produced = {name: value for name, (value, _unit) in outcome.metrics.items()}
    unknown = sorted(set(produced) - set(expected))
    if unknown:
        print(f"error: workload produced unlisted metrics {unknown}", file=sys.stderr)
        return 3
    if not ctx.trace:
        missing = sorted(set(expected) - set(produced))
        if missing:
            print(f"error: workload lacks end-to-end metrics {missing}", file=sys.stderr)
            return 3
    # A per-layer metric a workload does not produce belongs to a layer the
    # workload never calls: no calls, so zero time and zero work.
    metrics = {
        name: {"value": float(produced.get(name, 0.0)), "unit": unit}
        for name, unit in expected.items()
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "environment": environment(root),
        "wall_s": round(time.perf_counter() - started_at, 3),
        **outcome.report,
    }
    print("report " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
