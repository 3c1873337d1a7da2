"""Steadiness check: two sets of ten runs of one commit, compared per metric.

    python3 perfbench/steady.py --workload serve_hot

Run from the root of a checkout.  Each run is ``perfbench/run.py`` with
its own seed (set ``s`` run ``i`` uses seed ``first_seed + 10 * s + i``)
and the run length of ``BENCHMARK.json``.  For every end-to-end metric it
prints each set's median and quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median``, and whether the second median is within
the metric's bound of the first in its worse direction.  A metric is
*steady* when every set's spread is below a third of its bound; the exit
code is 0 only if every metric is steady, the sets agree and every run
failed the same share of operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({' '.join(command)}):\n{done.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run reported incorrect output: {' '.join(command)}")
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    sets = []
    for index in range(SETS):
        runs = []
        for offset in range(RUNS):
            seed = args.first_seed + index * RUNS + offset
            runs.append(one_run(args.workload, seed, spec["run_seconds"]))
            metrics = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"set {index + 1} seed {seed}: {json.dumps(metrics)}", flush=True)
        sets.append(runs)

    ok = True
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    print(f"\nfailed share of attempted operations: {sorted(shares)}")
    ok &= len(shares) == 1
    print(f"{'metric':<18}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        summaries = [summarise([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        for number, summary in enumerate(summaries, 1):
            steady = summary["spread"] < bound / 3
            ok &= steady
            print(
                f"{name:<18}{number:>4}{summary['median']:>14.4f}{summary['q1']:>14.4f}"
                f"{summary['q3']:>14.4f}{summary['spread']:>9.3f}{bound:>7.2f}  "
                f"{'steady' if steady else 'UNSTEADY'}"
            )
        first, second = summaries[0]["median"], summaries[1]["median"]
        change = (second - first) / first
        worse = change if metric["better"] == "lower" else -change
        agree = worse <= bound
        ok &= agree
        print(f"{name:<18}  second set vs first: {100 * change:+.2f}%  {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
