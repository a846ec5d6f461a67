"""Run-to-run spread of the end-to-end metrics, workloads interleaved.

Usage, from the repository root::

    python3 studybench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out .studybench/spread-a.json
    python3 studybench/spread.py --seeds 11 12 13 --workloads daily-wire --compare .studybench/spread-a.json

Runs the ``BENCHMARK.json`` command once per seed and workload, cycling
through the workloads inside each seed so host drift hits all of them
alike. For every workload and end-to-end metric it prints the median and
the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, beside the metric's bound; a run whose output check fails is
flagged and its metrics still count. ``--compare`` also prints how far each
median moved from an earlier ``--out`` file, as a share of the earlier
median, in the direction that is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(command: List[str], workload: str, seed: str, seconds: int) -> Dict:
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", seed,
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the raw values here (JSON)")
    parser.add_argument("--compare", help="an earlier --out file")
    args = parser.parse_args(argv)

    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            result = _run(bench["command"], workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: "
                + ("" if result["correct"] else
                   f"OUTPUT CHECK FAILED ({result['failed']}/{result['attempted']} scans) ")
                + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True,
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(values, handle, indent=1)
    earlier = None
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)

    print(f"{'workload':18} {'metric':16} {'median':>12} {'iqr/med':>8} {'bound':>6}"
          + (f" {'worse by':>9}" if earlier else ""))
    for workload, metrics in values.items():
        for spec in bench["end_to_end"]:
            series = metrics.get(spec["name"], [])
            if len(series) < 2:
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            line = (
                f"{workload:18} {spec['name']:16} {median:12.5g} "
                f"{(q3 - q1) / median:8.4f} {spec['bound']:6.3f}"
            )
            if earlier and earlier.get(workload, {}).get(spec["name"]):
                before = statistics.median(earlier[workload][spec["name"]])
                sign = 1 if spec["better"] == "lower" else -1
                line += f" {sign * (median - before) / before:9.4f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
