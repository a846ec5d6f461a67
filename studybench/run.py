"""Study benchmark command: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 studybench/run.py --workload daily-wire --seed 3 --seconds 35 --trace 0

Each repetition runs in a fresh interpreter, the way a user runs a
study, so the peak RSS of one repetition is its own; inside it, every
``Study`` session starts with the process-wide world pool and signature
memo emptied, as a new process would have them. The command:

1. looks up the reference output of each population it runs -- a dataset
   digest, a per-server query-log digest and the scan count -- in
   ``reference.json``, else in the checkout's ``.studybench/reference``
   cache, else makes it with one untimed serial study with the answer
   cache off;
2. with ``--trace 0``, repeats the workload for ``--seconds``, cycling
   through the populations derived from the seed and starting a
   repetition only if it should end in time, and reports the end-to-end
   metrics over the repetitions: all their scans over all their wall
   time, the medians of set-up and session time, and the largest peak
   RSS; with ``--trace 1``, runs the seed's own population untraced,
   traced and untraced again, then once more in its serial-equivalent
   shape with every authoritative server's query log armed, and reports
   the per-layer metrics of the traced repetition;
3. checks every repetition's dataset digest (and, traced, the query-log
   digest) against the reference, and prints host facts followed, as the
   last line, by ``{"correct", "attempted", "failed", "metrics"}``.

Records of each result and the traced repetition's spans are written
under ``.studybench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".studybench")
RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# The whole command must end well inside three minutes.
RUN_LIMIT_S = 170.0
COVERAGE_FLOOR = 0.9

for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


class RepFailed(RuntimeError):
    """A repetition's process raised, was killed, or ran out of time."""


# ---------------------------------------------------------------------------
# child side: one repetition per process
# ---------------------------------------------------------------------------


def _rep_main(mode: str, workload_name: str, seed: str, out: str) -> int:
    from studybench import digest, trace, workloads

    workload = workloads.WORKLOADS[workload_name]
    work_dir = os.path.join(WORK, "runs", f"{workload.name}-{os.getpid()}")
    schedule = workloads.study_spec(seed).build_schedule()
    result: Dict[str, object] = {}
    if mode in ("reference", "logged"):
        # Untimed output checks on the serial-equivalent shape; the
        # reference additionally turns the answer cache off.
        with digest.armed_query_logs() as worlds:
            rep = workloads.run_rep(
                workload, seed, work_dir,
                answer_cache=(mode == "logged"), serial=True,
            )
        per_server = digest.query_log_digests(worlds)
        del worlds
        result["query_logs"] = per_server
        result["query_log"] = digest.combined_digest(per_server)
    elif mode == "traced":
        tracer = trace.Tracer()
        layers = trace.install(tracer)
        try:
            with trace.GcProbe() as gc_probe:
                rep = workloads.run_rep(
                    workload, seed, work_dir,
                    around=lambda: tracer.span(trace.ROOT),
                )
        finally:
            layers.restore()
        summary = trace.summarize(tracer)
        result["layers"] = trace.layer_metrics(
            summary, tracer.counts, rep.dataset.run_stats,
            workloads.scan_count(rep.dataset, schedule),
            (rep.memo_hits, rep.memo_misses), gc_probe,
        )
        result["engine_scans"] = sum(summary.get(name).calls for name in trace.SCAN_SPANS)
        spans_path = os.path.join(WORK, "trace", f"{workload.name}-{_slug(seed)}.spans")
        tracer.write(spans_path)
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
        result["span_count"] = len(tracer.start)
    elif mode == "timed":
        rep = workloads.run_rep(workload, seed, work_dir)
    else:
        raise ValueError(f"unknown repetition mode {mode!r}")
    result.update(
        digest=digest.dataset_digest(rep.dataset),
        scans=workloads.scan_count(rep.dataset, schedule),
        wall_s=rep.wall_s,
        cpu_s=rep.cpu_s,
        setup_s=rep.setup_s,
        session_s=rep.session_s,
        snapshot_loads=rep.snapshot_loads,
        peak_rss_mb=workloads.peak_rss_mb(),
    )
    shutil.rmtree(work_dir, ignore_errors=True)
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _slug(seed: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]", "_", seed)[:40]
    return f"{cleaned}-{hashlib.sha256(seed.encode()).hexdigest()[:8]}"


class Runner:
    """Launches repetition processes against one overall deadline."""

    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def rep(self, mode: str, seed: str, workload: Optional[str] = None) -> Dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise RepFailed(f"no time left for a {mode} repetition")
        os.makedirs(WORK, exist_ok=True)
        handle, out = tempfile.mkstemp(prefix="rep-", suffix=".json", dir=WORK)
        os.close(handle)
        command = [
            sys.executable, os.path.abspath(__file__), "--rep", mode,
            "--workload", workload or self.workload, "--seed", seed, "--out", out,
        ]
        try:
            completed = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=remaining,
            )
            if completed.returncode != 0:
                raise RepFailed(f"{mode} repetition exited with {completed.returncode}")
            with open(out) as result:
                return dict(json.load(result), seed=seed)
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            raise RepFailed(f"{mode} repetition ran out of time") from exc
        finally:
            os.unlink(out)


def reference(runner: Runner, seed: str) -> Dict:
    """The expected output of the population *seed*: recorded, cached,
    or made now."""
    from repro.simnet.snapshot import code_fingerprint
    from studybench import workloads

    key = (
        f"{seed}|population={workloads.POPULATION}|day_step={workloads.DAY_STEP}"
        f"|ech_sample={workloads.ECH_SAMPLE}"
    )
    with open(RECORDED) as handle:
        recorded = json.load(handle)
    if key in recorded:
        return dict(recorded[key], source="recorded")
    cache = os.path.join(
        WORK, "reference",
        hashlib.sha256(f"{key}|{code_fingerprint()}".encode()).hexdigest()[:24] + ".json",
    )
    try:
        with open(cache) as handle:
            return dict(json.load(handle), source="cached")
    except (OSError, ValueError):
        pass
    made = runner.rep("reference", seed, workload="daily-object")
    entry = {
        "key": key,
        "dataset": made["digest"],
        "query_log": made["query_log"],
        "scans": made["scans"],
    }
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    with open(cache, "w") as handle:
        json.dump(entry, handle)
    return dict(entry, source="computed")


def _timed_metrics(reps: List[Dict]) -> Dict[str, float]:
    sessions = [s for rep in reps for s in rep["session_s"]]
    return {
        # Over all repetitions, so each of the run's populations counts.
        "scans_per_s": sum(r["scans"] for r in reps) / sum(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "session_p50_ms": 1000.0 * statistics.median(sessions),
    }


def _bench() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    bench = _bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default=None)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"studybench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    from studybench import host, workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.rep:
        return _rep_main(args.rep, args.workload, seed, args.out)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    runner = Runner(args.workload)
    # Timed runs cycle through the seed's populations; the traced run
    # stays on the first, so its repetitions compare.
    populations = [seed] if args.trace else workloads.populations(seed)
    steal_before = host.steal_jiffies()
    problems = []
    attempted = failed = 0
    try:
        expected = {population: reference(runner, population) for population in populations}
        if args.trace:
            reps = [runner.rep(mode, seed) for mode in ("timed", "traced", "timed")]
            logged = runner.rep("logged", seed)
        else:
            reps, logged = [], None
            started = time.monotonic()
            while True:
                population = populations[len(reps) % len(populations)]
                try:
                    reps.append(runner.rep("timed", population))
                except RepFailed as exc:
                    # Every scan of a repetition that raised counts as
                    # failed; the ones before it still report.
                    if not reps:
                        raise
                    attempted += expected[population]["scans"]
                    failed += expected[population]["scans"]
                    problems.append(str(exc))
                    break
                elapsed = time.monotonic() - started
                # Start another repetition only if it should end in time.
                if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                    break
    except RepFailed as exc:
        print(f"studybench: {exc}", file=sys.stderr)
        return 1
    steal_after = host.steal_jiffies()

    for index, rep in enumerate(reps + ([logged] if logged else [])):
        attempted += rep["scans"]
        want = expected[rep["seed"]]
        if rep["digest"] != want["dataset"] or rep["scans"] != want["scans"]:
            failed += rep["scans"]
            problems.append(
                f"repetition {index} (population {rep['seed']!r}): dataset digest or "
                f"scan count differs from the reference"
            )
    if logged is not None:
        traced = reps[1]
        if logged["query_log"] != expected[seed]["query_log"]:
            problems.append("per-server query logs differ from the reference")
        if traced["engine_scans"] != traced["scans"]:
            problems.append(
                f"traced scan calls {traced['engine_scans']} != derived {traced['scans']}"
            )
        values = dict(traced["layers"])
        untraced_wall = (reps[0]["wall_s"] + reps[2]["wall_s"]) / 2
        values["trace.overhead"] = traced["wall_s"] / untraced_wall
        if values["trace.coverage"] < COVERAGE_FLOOR:
            print(
                f"studybench: WARNING {args.workload} trace coverage "
                f"{values['trace.coverage']:.3f} is below {COVERAGE_FLOOR}"
            )
    else:
        values = _timed_metrics(reps)
    units = {
        metric["name"]: metric["unit"] for metric in bench["end_to_end"] + bench["per_layer"]
    }
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    record = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": dict(
            host.facts(ROOT),
            steal_jiffies=(
                None if steal_before is None or steal_after is None
                else steal_after - steal_before
            ),
        ),
        "reference": expected,
        "reps": [
            {
                key: rep[key]
                for key in (
                    "seed", "wall_s", "cpu_s", "setup_s", "scans", "peak_rss_mb", "snapshot_loads",
                )
            }
            for rep in reps
        ],
        "query_log": None if logged is None else logged["query_log"],
        "query_logs": None if logged is None else logged["query_logs"],
        "problems": problems,
        "metrics": metrics,
    }
    if logged is not None:
        record["spans_path"] = reps[1]["spans_path"]
        record["span_count"] = reps[1]["span_count"]
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(
        os.path.join(results, f"{args.workload}-{_slug(seed)}-trace{args.trace}.json"), "w"
    ) as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for problem in problems:
        print(f"studybench: CHECK FAILED {problem}", file=sys.stderr)
    print("studybench: host " + json.dumps(record["host"], sort_keys=True))
    for rep in record["reps"]:
        print("studybench: rep " + json.dumps(rep, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
