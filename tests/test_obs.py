"""Tests for the observability layer: metrics, tracing, report, HTTP.

Covers the registry/export contracts, deterministic trace sampling, the
codec round-trip for trace-annotated messages (including that an untraced
message costs zero extra wire bytes), the end-to-end sim waterfall on the
Figure 2(c) deployment, and the per-node introspection HTTP listener.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import MultiRingConfig
from repro.obs import Observability, obs_of
from repro.obs.http import ObsHTTPServer
from repro.obs.metrics import (
    Counter,
    DEFAULT_SIZE_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.report import load_spans, main as report_main, render_stage_table, render_waterfall
from repro.obs.stats import LatencyStats, percentile
from repro.obs.tracing import STAGES, Span, Tracer
from repro.paxos.types import Ballot
from repro.ringpaxos.messages import Decision, Phase2
from repro.runtime.codec import decode_value, encode_value
from repro.sim.world import World
from repro.types import Value

from conftest import build_two_ring_deployment


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("mrp_test_total", "a counter")
        counter.inc()
        counter.inc(2)
        gauge = registry.gauge("mrp_depth")
        gauge.set(5)
        gauge.dec()
        hist = registry.histogram("mrp_batch", buckets=DEFAULT_SIZE_BUCKETS)
        for value in (1, 3, 700):
            hist.observe(value)

        snapshot = registry.snapshot()
        metrics = snapshot["metrics"]
        assert metrics["mrp_test_total"] == 3
        assert metrics["mrp_depth"] == 4
        assert metrics["mrp_batch_count"] == 3
        assert metrics["mrp_batch_sum"] == 704
        # Cumulative buckets: le="1024" covers all three observations.
        assert metrics['mrp_batch_bucket{le="1024"}'] == 3
        assert metrics['mrp_batch_bucket{le="2"}'] == 1
        assert metrics['mrp_batch_bucket{le="+Inf"}'] == 3

    def test_instrument_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("mrp_x_total")
        b = registry.counter("mrp_x_total")
        assert a is b
        a.inc()
        assert registry.snapshot()["metrics"]["mrp_x_total"] == 1

    def test_collectors_run_only_at_snapshot_time(self):
        registry = MetricsRegistry(labels={"node": "n0"})
        calls = []

        def collector():
            calls.append(1)
            return [
                ("mrp_plain", 7),
                ("mrp_labeled", {"group": "g0"}, 9),
            ]

        registry.add_collector(collector)
        assert calls == []  # registration alone costs nothing
        snapshot = registry.snapshot()
        assert calls == [1]
        assert snapshot["labels"] == {"node": "n0"}
        assert snapshot["metrics"]["mrp_plain"] == 7
        assert snapshot["metrics"]['mrp_labeled{group="g0"}'] == 9

    def test_prometheus_rendering(self):
        registry = MetricsRegistry(labels={"node": "n1"})
        registry.counter("mrp_acks_total", "acks seen").inc(4)
        registry.histogram("mrp_lat", "latency").observe(0.002)
        text = registry.render_prometheus()
        assert "# HELP mrp_acks_total acks seen" in text
        assert "# TYPE mrp_acks_total counter" in text
        assert '# TYPE mrp_lat histogram' in text
        assert 'mrp_acks_total{node="n1"} 4' in text
        assert 'mrp_lat_count{node="n1"} 1' in text
        assert text.endswith("\n")

    def test_event_log_and_merge_snapshots(self):
        registry = MetricsRegistry()
        registry.record_event(1.5, "fault/crash", "n2")
        registry.record_event(3.0, "fault/recover", "n2")
        events = registry.events()
        assert events == [
            {"time": 1.5, "kind": "fault/crash", "detail": "n2"},
            {"time": 3.0, "kind": "fault/recover", "detail": "n2"},
        ]
        merged = merge_snapshots({"n0": registry.snapshot()})
        assert merged["nodes"]["n0"]["events"] == events

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry(labels={"node": "n0"})
        registry.histogram("mrp_h").observe(0.5)
        registry.record_event(0.0, "fault/action", "stall")
        json.dumps(registry.snapshot())  # must not raise

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            Histogram("mrp_bad", buckets=(2.0, 1.0))

    def test_direct_instrument_sample_shapes(self):
        counter = Counter("c")
        counter.inc()
        assert counter.samples() == [("c", (), 1.0)]
        gauge = Gauge("g")
        gauge.set(-2)
        assert gauge.samples() == [("g", (), -2.0)]


# ----------------------------------------------------------------------
# stats (moved from repro.sim.monitor; deprecated aliases remain there)
# ----------------------------------------------------------------------
class TestStats:
    def test_latency_stats_and_percentile(self):
        samples = [0.001 * i for i in range(1, 101)]
        stats = LatencyStats.from_samples(samples)
        assert stats.count == 100
        assert stats.p50 == pytest.approx(percentile(samples, 0.50))
        assert stats.maximum == pytest.approx(0.1)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_samples_nothing(self):
        tracer = Tracer(enabled=False, sample_interval=1)
        assert tracer.sample("n0", 1) is None

    def test_sampling_is_deterministic(self):
        tracer = Tracer(enabled=True, sample_interval=4)
        picks = [tracer.sample("n0", uid) for uid in range(1, 13)]
        sampled = [pick for pick in picks if pick is not None]
        assert sampled == ["n0-1", "n0-5", "n0-9"]  # every 4th, starting at 1

    def test_sample_interval_one_traces_everything(self):
        tracer = Tracer(enabled=True, sample_interval=1)
        assert all(tracer.sample("a", uid) for uid in range(5))

    def test_marks_open_once_and_close_once(self):
        tracer = Tracer(enabled=True)
        tracer.mark("t1", "merge:L1", 1.0)
        tracer.mark("t1", "merge:L1", 2.0)  # setdefault: first mark wins
        assert tracer.take_mark("t1", "merge:L1") == 1.0
        assert tracer.take_mark("t1", "merge:L1") is None

    def test_max_spans_caps_recording(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for i in range(5):
            tracer.record("t", "propose", "n0", float(i), float(i) + 1)
        assert len(tracer.spans) == 2

    def test_dump_jsonl_round_trips_through_load_spans(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.record("t1", "propose", "n0", 0.0, 0.5, group="g0", instance=3)
        tracer.record("t1", "phase2", "n1", 0.5, 1.0)
        path = tmp_path / "trace.jsonl"
        assert tracer.dump_jsonl(str(path)) == 2
        spans = load_spans(str(path))
        assert spans == tracer.as_dicts()
        assert spans[0]["group"] == "g0" and spans[0]["instance"] == 3
        assert "group" not in spans[1]  # optional fields omitted when unset

    def test_clear_resets_everything(self):
        tracer = Tracer(enabled=True, sample_interval=2)
        tracer.sample("n0", 1)
        tracer.record("t", "apply", "n0", 0.0, 0.1)
        tracer.mark("t", "k", 0.0)
        tracer.clear()
        assert tracer.spans == [] and tracer.trace_ids() == []
        assert tracer.take_mark("t", "k") is None


# ----------------------------------------------------------------------
# codec: trace annotations on the wire
# ----------------------------------------------------------------------
class TestTraceWireFormat:
    def test_traced_value_round_trips(self):
        value = Value.create(("append", "log-0", 64), 64, proposer="n0", trace="n0-17")
        decoded = decode_value(encode_value(value))
        assert decoded == value and decoded.trace == "n0-17"
        assert encode_value(decoded) == encode_value(value)

    def test_untraced_value_keeps_its_size_contract(self):
        # size_bytes models wire cost: the trace field must not change it for
        # untraced values (None adds nothing to the modelled size).
        untraced = Value.create("x", 8, proposer="n0", created_at=1.0)
        assert untraced.trace is None
        assert decode_value(encode_value(untraced)).size_bytes == untraced.size_bytes

    def test_traced_phase2_and_decision_round_trip(self):
        value = Value.create("x", 16, proposer="n0", trace="n0-5")
        ballot = Ballot(1, "n0")
        phase2 = Phase2(
            group="g0",
            instance=3,
            count=1,
            ballot=ballot,
            value=value,
            votes=frozenset({"n0"}),
            origin="n0",
            started_at=1.25,
        )
        decision = Decision(
            group="g0",
            instance=3,
            count=1,
            value=value,
            origin="n1",
            started_at=1.25,
            decided_at=1.5,
        )
        for message in (phase2, decision):
            decoded = decode_value(encode_value(message))
            assert decoded == message
            assert encode_value(decoded) == encode_value(message)
            assert decoded.size_bytes == message.size_bytes

    def test_timestamp_fields_default_to_none_and_cost_nothing(self):
        value = Value.create("x", 16, proposer="n0")
        bare = Decision(group="g0", instance=1, count=1, value=value, origin="n0")
        stamped = Decision(
            group="g0",
            instance=1,
            count=1,
            value=value,
            origin="n0",
            started_at=0.5,
            decided_at=1.0,
        )
        assert bare.started_at is None and bare.decided_at is None
        # The stamped variant models its extra wire cost explicitly.
        assert stamped.size_bytes == bare.size_bytes + 16


# ----------------------------------------------------------------------
# end-to-end: sim waterfall on the Figure 2(c) deployment
# ----------------------------------------------------------------------
class TestSimTracing:
    def _run_traced_world(self):
        world = World(seed=3, tracing=True, trace_sample=1)
        deployment = build_two_ring_deployment(world, MultiRingConfig.datacenter())
        node = deployment.node("a1")
        for index in range(4):
            world.sim.call_later(
                0.001 * (index + 1),
                lambda i=index: node.multicast("ring-1", f"op-{i}", 128),
            )
        world.run(until=2.0)
        return world

    def test_all_stages_recorded(self):
        world = self._run_traced_world()
        spans = world.obs.tracer.spans
        assert spans, "tracing enabled but no spans recorded"
        stages = {span.stage for span in spans}
        assert stages == set(STAGES)

    def test_every_trace_covers_propose_to_apply(self):
        world = self._run_traced_world()
        tracer = world.obs.tracer
        assert len(tracer.trace_ids()) == 4
        for trace_id in tracer.trace_ids():
            stages = {span.stage for span in tracer.spans_for(trace_id)}
            assert stages == set(STAGES), f"{trace_id} missing {set(STAGES) - stages}"

    def test_span_intervals_are_ordered(self):
        world = self._run_traced_world()
        for span in world.obs.tracer.spans:
            assert span.end >= span.start >= 0.0

    def test_disabled_tracing_records_nothing(self):
        world = World(seed=3)
        deployment = build_two_ring_deployment(world, MultiRingConfig.datacenter())
        deployment.node("a1").multicast("ring-1", "op", 128)
        world.run(until=1.0)
        assert world.obs.tracer.spans == []
        assert not world.obs.tracer.enabled

    def test_world_metrics_snapshot_covers_protocol_counters(self):
        world = self._run_traced_world()
        metrics = world.obs.metrics.snapshot()["metrics"]
        assert metrics["mrp_sim_events_total"] > 0
        assert metrics["mrp_network_messages_sent_total"] > 0
        delivered = [
            value
            for name, value in metrics.items()
            if name.startswith("mrp_merge_deliveries_total")
        ]
        assert delivered and sum(delivered) >= 4


# ----------------------------------------------------------------------
# report CLI
# ----------------------------------------------------------------------
class TestReport:
    def _spans(self):
        return [
            {"trace_id": "t1", "stage": "propose", "node": "n0", "start": 0.0, "end": 0.001},
            {"trace_id": "t1", "stage": "phase2", "node": "n1", "start": 0.001, "end": 0.003},
            {"trace_id": "t1", "stage": "decide", "node": "n2", "start": 0.003, "end": 0.004},
            {"trace_id": "t1", "stage": "merge-wait", "node": "n2", "start": 0.004, "end": 0.005},
            {"trace_id": "t1", "stage": "apply", "node": "n2", "start": 0.005, "end": 0.006},
        ]

    def test_waterfall_renders_all_spans(self):
        text = render_waterfall("t1", self._spans(), width=40)
        assert "trace t1" in text
        for stage in STAGES:
            assert stage in text

    def test_stage_table_orders_canonically(self):
        table = render_stage_table(self._spans())
        positions = [table.index(stage) for stage in STAGES]
        assert positions == sorted(positions)

    def test_main_renders_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(span) for span in self._spans()) + "\n")
        assert report_main([str(path), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace t1" in out and "5 spans across 1 traces" in out

    def test_main_fails_on_empty_log(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert report_main([str(path)]) == 1

    def test_main_fails_on_unknown_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(self._spans()[0]) + "\n")
        assert report_main([str(path), "--trace", "nope"]) == 1

    def test_load_spans_accepts_json_document(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"spans": self._spans()}))
        assert load_spans(str(path)) == self._spans()


# ----------------------------------------------------------------------
# observability bundle / obs_of
# ----------------------------------------------------------------------
class TestObservabilityBundle:
    def test_obs_of_attaches_default_to_bare_runtime(self):
        class BareRuntime:
            pass

        runtime = BareRuntime()
        obs = obs_of(runtime)
        assert isinstance(obs, Observability)
        assert not obs.tracer.enabled
        assert obs_of(runtime) is obs  # sticky

    def test_obs_of_returns_module_default_for_slotted_runtime(self):
        class Slotted:
            __slots__ = ()

        first = obs_of(Slotted())
        second = obs_of(Slotted())
        assert first is second  # the shared disabled fallback

    def test_snapshot_has_trace_section(self):
        obs = Observability(tracing=True, trace_sample=8)
        obs.tracer.record("t", "apply", "n0", 0.0, 0.1)
        snap = obs.snapshot()
        assert snap["trace"] == {
            "enabled": True,
            "sample_interval": 8,
            "spans": 1,
            "traces": 1,
        }


# ----------------------------------------------------------------------
# HTTP introspection listener
# ----------------------------------------------------------------------
async def _get(address, path):
    reader, writer = await asyncio.open_connection(*address)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), 5.0)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split(b" ", 2)[1])
    return status, body


class TestObsHTTPServer:
    def _obs(self):
        obs = Observability(tracing=True, trace_sample=1, labels={"node": "n0"})
        obs.metrics.counter("mrp_test_total", "test counter").inc(3)
        obs.tracer.record("n0-1", "propose", "n0", 0.0, 0.001, group="g0", instance=0)
        return obs

    def _run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, 20.0))

    def test_healthz_metrics_and_spans_routes(self):
        async def scenario():
            obs = self._obs()
            server = ObsHTTPServer(obs, "n0", now=lambda: 42.0)
            address = await server.start()
            try:
                status, body = await _get(address, "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health == {"status": "ok", "node": "n0", "time": 42.0}

                status, body = await _get(address, "/metrics")
                assert status == 200
                assert 'mrp_test_total{node="n0"} 3' in body.decode()

                status, body = await _get(address, "/spans")
                assert status == 200 and json.loads(body) == {"traces": ["n0-1"]}

                status, body = await _get(address, "/spans/n0-1")
                assert status == 200
                payload = json.loads(body)
                assert payload["spans"][0]["stage"] == "propose"

                assert server.requests_served == 4
            finally:
                await server.close()

        self._run(scenario())

    def test_unknown_routes_and_methods(self):
        async def scenario():
            server = ObsHTTPServer(self._obs(), "n0")
            address = await server.start()
            try:
                status, _ = await _get(address, "/nope")
                assert status == 404
                status, _ = await _get(address, "/spans/unknown-trace")
                assert status == 404

                reader, writer = await asyncio.open_connection(*address)
                writer.write(b"POST /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                assert b"405" in raw.split(b"\r\n", 1)[0]
            finally:
                await server.close()

        self._run(scenario())
