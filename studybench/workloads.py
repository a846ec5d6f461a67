"""The benchmark's workloads and one timed repetition of each.

All three measure the same study -- a longitudinal scan of a simulated
Tranco population every :data:`DAY_STEP` days plus the hourly ECH week
and the DNSSEC snapshot -- so they must return value-equal datasets:

* ``daily-object``: one-shot serial study, object mode (the default
  product path: zone build, recursion, authoritative synthesis and DNSSEC
  validation do the work, the wire codec none);
* ``daily-wire``: the same with ``SimConfig(wire_mode=True)``, so every
  exchange crosses the ``dnscore`` codec and the wire-byte cache;
* ``collector-resume``: a continuous study with a world snapshot
  directory and two scan days per increment, re-run in a fresh ``Study``
  session until it completes; each session collects one increment, folds
  it and checkpoints (the only workload through the pipeline, collector,
  incremental fold and world snapshot, with the answer cache cold per
  increment). Every session starts as cold as a new process: the world
  pool and the signature memo are emptied (:func:`cold_start`), so the
  first session builds and snapshots the world and each later one loads
  the snapshot from disk. It runs one worker, so
  ``ParallelCampaignRunner.prepare`` does nothing and the snapshot work
  happens in the world checkout instead. With a two-process pool on a two-CPU
  host the run-to-run spread followed the hypervisor's steal time (a
  fifth of the median over ten seeds), and one increment per session with
  two shards alternates scan-only and scan-and-fold sessions, which puts
  the median session time in the gap between the two.

A scan is one ``ScanEngine.scan_name`` / ``scan_ech`` /
``scan_nameserver`` observation; :func:`scan_count` derives the count
from the dataset and schedule, so it is the same for every workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import resource
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.dnssec.signing import signature_memo
from repro.scanner.campaign import ech_targets
from repro.scanner.collector import CollectionInterrupted
from repro.simnet.config import SimConfig
from repro.simnet.snapshot import WorldRegistry, world_registry
from repro.simnet.world import World
from repro.study import ExecutionPlan, Study, StudySpec
from studybench.trace import Patches, Tracer, span_wrapper, summarize

DEFAULT_SEED = "imc2024-dnshttps"
# Small enough that a 35-second run holds about ten repetitions, which
# together ride out the short slow phases of a shared host. At this population
# most seeds have 9-17 ECH-bearing apexes per hourly-scan day: sampling 5
# keeps the hourly rescans near a fifth of all scans (as 60 of them do at
# population 1000) and the scan count nearly the same for every seed.
POPULATION = 100
DAY_STEP = 28
ECH_SAMPLE = 5
COLLECTOR_WORKERS = 1
DAYS_PER_INCREMENT = 2
# A complete collection takes one session per increment; more than this
# means the collector stopped making progress.
MAX_SESSIONS = 200
SETUP_SPAN = "bench.setup"
# At this population the cost of a scan moves with the population's
# make-up: over seeds 1-10, interleaved so host drift hit all alike, the
# per-seed wire-mode rates had an interquartile spread of 13% of their
# median. A timed run therefore cycles through this many populations
# derived from its seed; each new one costs an untimed reference study
# (about 3.5 s) outside the measured time.
POPULATIONS_PER_RUN = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    wire_mode: bool = False
    collector: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("daily-object"),
        Workload("daily-wire", wire_mode=True),
        Workload("collector-resume", collector=True),
    )
}


def populations(seed: str) -> List[str]:
    """The population seeds a timed run of *seed* cycles through; the
    first is *seed* itself."""
    return [seed] + [f"{seed}-{index}" for index in range(1, POPULATIONS_PER_RUN)]


def study_spec(seed: str, wire_mode: bool = False) -> StudySpec:
    return StudySpec(
        SimConfig(population=POPULATION, seed=seed, wire_mode=wire_mode),
        day_step=DAY_STEP,
        ech_sample=ECH_SAMPLE,
    )


def scan_count(dataset, schedule) -> int:
    """Scans behind *dataset*: an apex and a www scan per listed domain
    and day, one scan per name server observed, and 24 hourly ECH
    rescans per target on each ECH day."""
    scans = 0
    for snapshot in dataset.snapshots.values():
        scans += 2 * len(snapshot.ranked_names) + len(snapshot.ns_observations)
    for date in schedule.ech_days:
        snapshot = dataset.snapshots.get(date)
        if snapshot is not None:
            scans += 24 * len(ech_targets(snapshot, schedule.ech_sample))
    return scans


@dataclasses.dataclass
class Rep:
    """One repetition: the whole study, every session from its ``Study``
    construction to its close (times summed over sessions)."""

    dataset: object
    wall_s: float
    cpu_s: float
    setup_s: float
    session_s: List[float]
    # The signature memo's hits and misses, and the worlds loaded from
    # the snapshot, over all sessions.
    memo_hits: int
    memo_misses: int
    snapshot_loads: int


def _fresh(directory: str) -> str:
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    return directory


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def cold_start() -> Tuple[int, int, int]:
    """Empty the process-wide world pool and signature memo, as a new
    process has them, so the next session loads its world from the
    snapshot and signs from scratch. Returns what they counted so far:
    the memo's (hits, misses) and the worlds the pool loaded."""
    memo, registry = signature_memo(), world_registry()
    counts = (memo.hits, memo.misses, registry.stats()["loaded"])
    registry.clear()
    memo.clear()
    return counts


def run_rep(
    workload: Workload,
    seed: str,
    work_dir: str,
    answer_cache: bool = True,
    serial: bool = False,
    around: Optional[Callable[[], contextlib.AbstractContextManager]] = None,
) -> Rep:
    """Run the workload's study once in a fresh working directory.

    *serial* runs the workload's serial-equivalent shape instead (the
    one-shot serial study over the same config); *around* wraps each
    session (the tracer's root span). Every session starts from
    :func:`cold_start`, and only the sessions are timed."""
    work_dir = _fresh(work_dir)
    spec = study_spec(seed, wire_mode=workload.wire_mode)
    collector = workload.collector and not serial
    if collector:
        plan = ExecutionPlan(
            workers=COLLECTOR_WORKERS,
            snapshot_dir=os.path.join(work_dir, "worlds"),
            cache_dir=work_dir,
            continuous=True,
            days_per_increment=DAYS_PER_INCREMENT,
            max_increments=1,
        )
        # One worker runs increments in-process, so set-up is acquiring
        # the world: the first session builds and snapshots it, the later
        # ones load the snapshot.
        setup_entry = (WorldRegistry, "checkout")
    else:
        plan = ExecutionPlan(cache_dir=work_dir, answer_cache=answer_cache)
        setup_entry = (World, "__init__")
    setup = Tracer()
    patches = Patches()
    patches.replace(*setup_entry, functools.partial(span_wrapper, setup, SETUP_SPAN))
    sessions: List[float] = []
    cpu_s = 0.0
    counts = [0, 0, 0]
    dataset = None
    try:
        while dataset is None:
            if len(sessions) >= MAX_SESSIONS:
                raise RuntimeError(f"no complete dataset after {MAX_SESSIONS} sessions")
            counts = [a + b for a, b in zip(counts, cold_start())]
            cpu_started = _cpu_s()
            started = time.perf_counter()
            with (around or contextlib.nullcontext)(), Study(spec, plan) as study:
                try:
                    dataset = study.run()
                except CollectionInterrupted:
                    pass
            sessions.append(time.perf_counter() - started)
            cpu_s += _cpu_s() - cpu_started
        counts = [a + b for a, b in zip(counts, cold_start())]
    finally:
        patches.restore()
    return Rep(
        dataset, sum(sessions), cpu_s, summarize(setup).get(SETUP_SPAN).total_s,
        sessions, *counts,
    )


def peak_rss_mb() -> float:
    """The larger of this process's and its waited-for children's max
    RSS (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
