"""Tests of the study benchmark's own machinery: span arithmetic, the
layer wrappers, cold sessions, and the canonical dataset digest."""

from __future__ import annotations

import datetime
import json
import os
import pickle

import pytest

from repro.dnscore import rdtypes
from repro.dnscore.message import Message
from repro.dnscore.names import Name
from repro.dnssec.signing import signature_memo
from repro.scanner import run_campaign
from repro.scanner.campaign import RunStats
from repro.simnet import SimConfig, World
from repro.simnet.snapshot import world_registry
from studybench import digest, trace, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scripted_clock(*ticks):
    times = iter(ticks)
    return lambda: next(times)


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > recursive [1,5] > network [2,4]; recursive [6,8].
    tracer = trace.Tracer(clock=_scripted_clock(0, 1, 2, 4, 5, 6, 8, 10))
    root = tracer.open(trace.ROOT)
    outer = tracer.open("resolver.recursive")
    inner = tracer.open("resolver.network")
    tracer.close(inner)
    tracer.close(outer)
    with tracer.span("resolver.recursive"):
        pass
    tracer.close(root)

    summary = trace.summarize(tracer)
    network = summary.get("resolver.network")
    recursive = summary.get("resolver.recursive")
    assert (network.calls, network.total_s, network.self_s) == (1, 2, 2)
    assert (recursive.calls, recursive.total_s, recursive.self_s) == (2, 6, 4)
    assert summary.get(trace.ROOT).self_s == 4
    assert summary.coverage == pytest.approx(0.6)
    assert summary.get("never.opened").calls == 0


def test_cache_save_excludes_checkpoint_writes():
    # root [0,20] > checkpoint_write [1,5] > save [2,4]; save [6,9].
    tracer = trace.Tracer(clock=_scripted_clock(0, 1, 2, 4, 5, 6, 9, 20))
    with tracer.span(trace.ROOT):
        with tracer.span("collector.checkpoint_write"):
            with tracer.span("study.dataset_save"):
                pass
        with tracer.span("study.dataset_save"):
            pass
    summary = trace.summarize(tracer)
    assert summary.cache_save_s == 3
    assert summary.get("study.dataset_save").total_s == 5


def test_spans_closed_out_of_order_are_rejected():
    tracer = trace.Tracer(clock=_scripted_clock(0, 1, 2))
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_layer_wrappers_record_and_restore():
    originals = {
        attr: vars(Message)[attr] for attr in ("to_wire", "from_wire")
    }
    tracer = trace.Tracer()
    layers = trace.install(tracer)
    try:
        query = Message.make_query(Name.from_text("wrapped.example."), rdtypes.A)
        Message.from_wire(query.to_wire())
        Name((b"fresh", b"example", b""))
    finally:
        layers.restore()
    summary = trace.summarize(tracer)
    assert summary.get("dnscore.wire.encode").calls == 1
    assert summary.get("dnscore.wire.decode").calls == 1
    assert tracer.counts["dnscore.names.created"] >= 1
    assert {attr: vars(Message)[attr] for attr in originals} == originals


def test_cold_start_makes_the_next_checkout_load_the_snapshot(tmp_path):
    registry = world_registry()
    config = SimConfig(population=20, seed="cold-start")
    workloads.cold_start()
    registry.checkin(registry.checkout(config, str(tmp_path)))
    assert registry.idle_count(config) == 1
    assert registry.stats()["saved"] == 1
    assert workloads.cold_start()[2] == 0
    assert registry.idle_count(config) == 0 and len(signature_memo()) == 0
    registry.checkin(registry.checkout(config, str(tmp_path)))
    assert workloads.cold_start()[2] == 1


def test_generator_spans_charge_resumptions_not_the_consumer():
    tracer = trace.Tracer(clock=_scripted_clock(0, 1, 2, 5, 6, 7))

    class Source:
        def items(self):
            yield 1

    patches = trace.Patches()
    patches.replace(Source, "items", lambda fn: trace._generator_wrapper(tracer, "gen", fn))
    try:
        for _ in Source().items():
            with tracer.span("consumer"):  # between resumptions: [2,5]
                pass
    finally:
        patches.restore()
    summary = trace.summarize(tracer)
    # Two resumptions: [0,1] yields the item, [6,7] finds the end.
    assert summary.get("gen").calls == 2
    assert summary.get("gen").total_s == 2
    assert summary.get("consumer").total_s == 3


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    empty = trace.summarize(trace.Tracer())
    metrics = trace.layer_metrics(empty, {}, RunStats(), 0, (0, 0), trace.GcProbe())
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(
        list(metrics) + ["trace.overhead"]
    )


# ---------------------------------------------------------------------------
# canonical dataset digest
# ---------------------------------------------------------------------------

_WINDOW = dict(
    day_step=7,
    start=datetime.date(2023, 7, 20),
    end=datetime.date(2023, 8, 20),
    ech_sample=5,
)


@pytest.fixture(scope="module")
def object_and_wire():
    """A short campaign in object and wire mode, query logs armed."""
    runs = []
    for wire_mode in (False, True):
        with digest.armed_query_logs() as worlds:
            config = SimConfig(population=300, wire_mode=wire_mode)
            dataset = run_campaign(World(config), **_WINDOW)
        runs.append((dataset, digest.query_log_digests(worlds)))
    return runs


def test_value_equal_datasets_share_a_digest(object_and_wire):
    (objects, object_log), (wire, wire_log) = object_and_wire
    assert objects == wire
    assert digest.dataset_digest(objects) == digest.dataset_digest(wire)
    assert object_log == wire_log


def test_digest_ignores_dict_order_unlike_pickle(object_and_wire):
    dataset = object_and_wire[0][0]
    reordered = pickle.loads(pickle.dumps(dataset))
    day = max(reordered.snapshots)
    snapshot = reordered.snapshots[day]
    assert len(snapshot.apex) > 1
    snapshot.apex = dict(reversed(list(snapshot.apex.items())))
    assert reordered == dataset
    assert pickle.dumps(reordered) != pickle.dumps(dataset)
    assert digest.dataset_digest(reordered) == digest.dataset_digest(dataset)


def test_digest_changes_when_one_observation_changes(object_and_wire):
    dataset = object_and_wire[0][0]
    altered = pickle.loads(pickle.dumps(dataset))
    day = max(altered.snapshots)
    observation = next(iter(altered.snapshots[day].apex.values()))
    observation.soa_serial = (observation.soa_serial or 0) + 1
    assert altered != dataset
    assert digest.dataset_digest(altered) != digest.dataset_digest(dataset)


def test_digest_rejects_values_it_cannot_encode():
    with pytest.raises(TypeError):
        digest._encode(object())
