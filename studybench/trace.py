"""In-memory span tracer and the layer map of the study benchmark.

A :class:`Tracer` records spans -- name, start, end and the index of the
enclosing span -- in flat arrays, so a traced study of a few hundred
thousand DNS exchanges costs tens of megabytes, and counts calls the
layers make too often to span (``Name`` construction). :func:`install`
wraps the public entry point of every layer named in :data:`SPANS`,
:data:`GENERATOR_SPANS` and :data:`COUNTERS` from the outside, and
restoring the returned :class:`Patches` puts the originals back; nothing
under ``src/`` knows it is traced.

A layer's self time is its spans' durations minus the part covered by
their child spans (:func:`summarize`). Spans are recorded in the process
that installed the tracer; every workload runs its study in one process.
"""

from __future__ import annotations

import array
import contextlib
import dataclasses
import functools
import gc
import importlib
import os
import pickle
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# (module, class or None for a module-level function, attribute, span name).
# Several entry points may share a span name; their spans then add up.
SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.scanner.engine", "ScanEngine", "scan_name", "scanner.engine.scan_name"),
    ("repro.scanner.engine", "ScanEngine", "scan_ech", "scanner.engine.scan_ech"),
    ("repro.scanner.engine", "ScanEngine", "scan_nameserver", "scanner.engine.scan_nameserver"),
    ("repro.scanner.engine", "ScanEngine", "probe_connectivity", "scanner.engine.probe_connectivity"),
    ("repro.resolver.stub", "StubResolver", "query", "resolver.stub"),
    ("repro.resolver.recursive", "RecursiveResolver", "resolve", "resolver.recursive"),
    ("repro.resolver.network", "Network", "send_dns_query", "resolver.network"),
    ("repro.resolver.authoritative", "AuthoritativeServer", "handle_query", "resolver.authoritative"),
    ("repro.dnscore.message", "Message", "to_wire", "dnscore.wire.encode"),
    ("repro.dnscore.message", "Message", "from_wire", "dnscore.wire.decode"),
    ("repro.simnet.world", "World", "__init__", "simnet.world_build"),
    ("repro.simnet.world", "World", "set_time", "simnet.day_roll"),
    ("repro.simnet.world", "World", "zone_of", "simnet.zone_build"),
    ("repro.simnet.snapshot", None, "load_world_snapshot", "simnet.snapshot_load"),
    ("repro.simnet.snapshot", None, "save_world_snapshot", "simnet.snapshot_save"),
    ("repro.zones.zone", "Zone", "sign", "zones.sign"),
    ("repro.dnssec.validation", "ChainValidator", "validate", "dnssec.validate"),
    ("repro.scanner.pipeline", "ParallelCampaignRunner", "prepare", "pipeline.prepare"),
    ("repro.scanner.pipeline", "ParallelCampaignRunner", "finish_slice", "pipeline.finish_slice"),
    ("repro.scanner.pipeline", "ParallelCampaignRunner", "close", "pipeline.close"),
    ("repro.scanner.pipeline", None, "merge_shard_datasets", "pipeline.merge"),
    ("repro.scanner.collector", None, "merge_shard_datasets", "pipeline.merge"),
    ("repro.scanner.incremental", None, "fold_slice", "incremental.fold"),
    ("repro.scanner.collector", None, "fold_slice", "incremental.fold"),
    ("repro.scanner.collector", "CheckpointStore", "__init__", "collector.checkpoint_open"),
    ("repro.scanner.collector", "CheckpointStore", "record_increment", "collector.checkpoint_write"),
    ("repro.scanner.collector", "CheckpointStore", "save_merged", "collector.checkpoint_write"),
    ("repro.scanner.collector", "CheckpointStore", "load_merged", "collector.checkpoint_read"),
    ("repro.scanner.collector", "CheckpointStore", "load_part", "collector.checkpoint_read"),
    ("repro.scanner.dataset", "Dataset", "save", "study.dataset_save"),
    ("repro.scanner.dataset", "Dataset", "load", "study.dataset_load"),
)

# Generators: every resumption is its own span, so the time the caller
# spends between items (journalling a finished shard) is not charged.
GENERATOR_SPANS = (
    ("repro.scanner.pipeline", "ParallelCampaignRunner", "run_shards", "pipeline.run_shards"),
)

# Entry points too hot to span: calls are counted only.
COUNTERS = (
    ("repro.dnscore.names", "Name", "__init__", "dnscore.names.created"),
    ("repro.dnscore.names", "Name", "to_text", "dnscore.names.to_text_calls"),
)

ROOT = "bench.rep"
SCAN_SPANS = ("scanner.engine.scan_name", "scanner.engine.scan_nameserver")
_ENGINE_PREFIX = "scanner.engine."


class Tracer:
    """Spans in flat arrays plus named call counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self._clock())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self._clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def write(self, path: str) -> None:
        """Write the spans and counters out (a pickled dict of arrays)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "counts": dict(self.counts),
                },
                handle,
                protocol=4,
            )


@dataclasses.dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclasses.dataclass
class Summary:
    """Per-name span totals of one trace plus the facts computed from
    the span tree itself."""

    by_name: Dict[str, SpanTotals]
    # Duration of the root spans and the part of it their direct
    # children cover (the layer spans).
    root_s: float
    covered_s: float
    # Dataset.save time outside checkpoint writes: the study cache save.
    cache_save_s: float

    def get(self, name: str) -> SpanTotals:
        return self.by_name.get(name, SpanTotals())

    @property
    def coverage(self) -> float:
        return self.covered_s / self.root_s if self.root_s > 0 else 0.0


def summarize(tracer: Tracer) -> Summary:
    """Aggregate a trace: calls, total and self time per span name. A
    span's self time is its duration minus its direct children's."""
    count = len(tracer.start)
    duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
    children = [0.0] * count
    names = tracer.names
    root_id = tracer._ids.get(ROOT, -1)
    save_id = tracer._ids.get("study.dataset_save", -1)
    write_id = tracer._ids.get("collector.checkpoint_write", -1)
    root_s = covered_s = cache_save_s = 0.0
    for i in range(count):
        parent = tracer.parent[i]
        if parent >= 0:
            children[parent] += duration[i]
            if tracer.name_id[parent] == root_id:
                covered_s += duration[i]
        if tracer.name_id[i] == root_id:
            root_s += duration[i]
        elif tracer.name_id[i] == save_id and (
            parent < 0 or tracer.name_id[parent] != write_id
        ):
            cache_save_s += duration[i]
    by_name: Dict[str, SpanTotals] = {}
    for i in range(count):
        totals = by_name.setdefault(names[tracer.name_id[i]], SpanTotals())
        totals.calls += 1
        totals.total_s += duration[i]
        totals.self_s += duration[i] - children[i]
    return Summary(by_name, root_s, covered_s, cache_save_s)


# ---------------------------------------------------------------------------
# wrapping layer entry points
# ---------------------------------------------------------------------------


def span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _generator_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            yield item

    return traced


def _counting_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


class Patches:
    """Attribute replacements that can be undone, in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _owner(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point for *tracer*; ``restore()`` the
    returned patches to put the originals back."""
    patches = Patches()
    for table, wrapper in (
        (SPANS, span_wrapper),
        (GENERATOR_SPANS, _generator_wrapper),
        (COUNTERS, _counting_wrapper),
    ):
        for module, cls, attr, name in table:
            patches.replace(
                _owner(module, cls), attr, functools.partial(wrapper, tracer, name)
            )
    return patches


class GcProbe:
    """Cyclic-GC pause time and full collections, via ``gc.callbacks``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._started = 0.0
        self.pause_s = 0.0
        self.gen2_collections = 0

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = self._clock()
        else:
            self.pause_s += self._clock() - self._started
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summary: Summary,
    counts: Dict[str, int],
    stats,
    scans: int,
    memo: Tuple[int, int],
    gc_probe: GcProbe,
) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition, keyed by the
    names ``BENCHMARK.json`` lists (``trace.overhead`` is added by the
    caller, which also times the untraced repetitions). *stats* is the
    dataset's ``RunStats``; *memo* the signature memo's (hits, misses)
    during the repetition."""
    get = summary.get
    resolves = get("resolver.recursive").calls
    lookups = stats.answer_hits + stats.answer_misses
    zones = stats.zone_builds + stats.zone_body_reuses
    encode, decode = get("dnscore.wire.encode"), get("dnscore.wire.decode")
    return {
        "scanner.scans": scans,
        "scanner.engine.self_s": sum(
            totals.self_s
            for name, totals in summary.by_name.items()
            if name.startswith(_ENGINE_PREFIX)
        ),
        "resolver.recursive.self_s": get("resolver.recursive").self_s,
        "resolver.recursive.resolves": resolves,
        "resolver.upstream_per_resolve": _ratio(stats.dns_queries, resolves),
        "resolver.authoritative.self_s": get("resolver.authoritative").self_s,
        "resolver.answer_cache.hit_ratio": _ratio(stats.answer_hits, lookups),
        "resolver.answer_cache.evictions": stats.answer_evictions,
        "resolver.network.queries": stats.dns_queries,
        "resolver.network.self_s": get("resolver.network").self_s,
        "dnscore.wire.encode_s": encode.total_s,
        "dnscore.wire.decode_s": decode.total_s,
        "dnscore.wire.messages": encode.calls + decode.calls,
        "dnscore.names.created": counts.get("dnscore.names.created", 0),
        "dnscore.names.to_text_calls": counts.get("dnscore.names.to_text_calls", 0),
        "simnet.zone_build.self_s": get("simnet.zone_build").self_s,
        "simnet.zone_reuse_ratio": _ratio(stats.zone_body_reuses, zones),
        "simnet.day_roll_s": get("simnet.day_roll").total_s,
        "simnet.world_build_s": get("simnet.world_build").total_s,
        "zones.sign.self_s": get("zones.sign").self_s,
        "zones.sign.calls": get("zones.sign").calls,
        "dnssec.validate.self_s": get("dnssec.validate").self_s,
        "dnssec.validate.calls": get("dnssec.validate").calls,
        "dnssec.signature_memo.hit_ratio": _ratio(memo[0], memo[0] + memo[1]),
        "pipeline.prepare_s": get("pipeline.prepare").total_s,
        "pipeline.run_shards_wait_s": get("pipeline.run_shards").self_s,
        "pipeline.finish_slice_s": get("pipeline.finish_slice").total_s,
        "pipeline.merge_s": get("pipeline.merge").total_s,
        "incremental.fold_s": get("incremental.fold").total_s,
        "collector.checkpoint_write_s": get("collector.checkpoint_write").total_s,
        "collector.checkpoint_read_s": get("collector.checkpoint_read").total_s,
        "study.cache_save_s": summary.cache_save_s,
        "python.gc.pause_s": gc_probe.pause_s,
        "python.gc.gen2_collections": gc_probe.gen2_collections,
        "trace.coverage": summary.coverage,
    }
