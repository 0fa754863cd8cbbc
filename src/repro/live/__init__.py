"""Live-mode launcher: run the protocol stack over real localhost TCP.

``python -m repro.live --smoke`` boots a 3-node single-ring dLog deployment
on the live backend (:mod:`repro.runtime.live`): every node is an asyncio
task set with its own TCP server, every protocol message crosses a real
socket through the versioned codec, and the run reports *wall-clock*
throughput into ``BENCH_live.json``.

The run double-checks the paper's safety contract end to end:

* **zero lost acked writes** -- every append whose future resolved (acked at
  the submitting node's learner) appears in every node's delivered sequence,
* **identical delivery sequences** -- all learners deliver the same order,
* **identical dLog state** -- every replica's log tail agrees.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.config import MultiRingConfig
from repro.multiring.deployment import Deployment, RingSpec
from repro.obs.metrics import merge_snapshots
from repro.runtime.interfaces import StorageMode
from repro.runtime.live import LiveDeployment
from repro.services.dlog.state import DLogStateMachine

__all__ = ["run_live_dlog", "run_live"]

#: The single ring of the smoke deployment (one log, as in Figure 5 scaled down).
GROUP = "dlog-log-0"
LOG = "log-0"


async def _http_get(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, str]:
    """Minimal HTTP/1.0 GET against a node's introspection listener."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("ascii"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0]
    status = int(status_line.split(b" ", 2)[1])
    return status, body.decode("utf-8", errors="replace")


async def run_live_dlog(
    nodes: int = 3,
    values: int = 300,
    value_size: int = 1024,
    window: int = 32,
    storage: str = "memory",
    storage_dir: Optional[str] = None,
    timeout: float = 60.0,
    seed: int = 0,
    tracing: bool = True,
    trace_sample: int = 64,
    serve_http: bool = True,
    trace_log: Optional[str] = None,
) -> Dict:
    """Run the live dLog deployment and return the result/metrics dictionary.

    ``window`` bounds the number of outstanding appends (a closed loop of
    ``window`` client threads).  ``storage`` selects the acceptor log mode:
    ``memory`` or any :class:`StorageMode` value; durable modes append to
    real files under ``storage_dir``.

    Observability: ``tracing`` samples causal traces (every
    ``trace_sample``-th proposed value), ``serve_http`` starts the per-node
    ``/metrics`` + ``/healthz`` listeners (scraped once at the end of the run
    as a self-check), and ``trace_log`` dumps all sampled spans to a JSONL
    file renderable with ``python -m repro.obs.report``.
    """
    if nodes < 1:
        raise ValueError("the live deployment needs at least one node")
    mode = StorageMode.MEMORY if storage == "memory" else StorageMode(storage)
    names = [f"n{i}" for i in range(nodes)]
    cluster = LiveDeployment(
        seed=seed,
        storage_dir=storage_dir,
        tracing=tracing,
        trace_sample=trace_sample,
        serve_http=serve_http,
    )
    # Rate leveling only matters when merging multiple rings; on the single
    # smoke ring it would stream λ·Δ skip instances over TCP for nothing.
    deployment = Deployment(cluster, MultiRingConfig.datacenter(rate_leveling=False))
    deployment.add_ring(
        RingSpec(group=GROUP, members=names, coordinator=names[0], storage_mode=mode)
    )

    loop = asyncio.get_running_loop()
    pending: Dict[str, asyncio.Future] = {}
    sequences: Dict[str, List[str]] = {name: [] for name in names}
    machines: Dict[str, DLogStateMachine] = {
        name: DLogStateMachine(logs=(LOG,)) for name in names
    }

    def on_delivery(node_name: str, delivery) -> None:
        operation = delivery.value.payload
        machines[node_name].execute(operation, delivery.group)
        tag = operation[3]
        sequences[node_name].append(tag)
        if node_name == names[0]:
            future = pending.get(tag)
            if future is not None and not future.done():
                future.set_result(tag)

    async with cluster:
        for name in names:
            deployment.node(name).on_deliver(
                lambda d, name=name: on_delivery(name, d), group=GROUP
            )

        started_at = time.perf_counter()
        outstanding = set()
        async def _await_some(futures, count):
            done, rest = await asyncio.wait(
                futures, return_when=asyncio.FIRST_COMPLETED, timeout=timeout
            )
            if not done:
                raise asyncio.TimeoutError(
                    f"no append acked within {timeout}s ({count} submitted)"
                )
            return rest

        for index in range(values):
            tag = f"v{index}"
            future = loop.create_future()
            pending[tag] = future
            operation = ("append", LOG, value_size, tag)
            via = names[index % nodes]
            # Submitted from that node's pump, like any other of its events.
            cluster.node(via).runtime.sim.post(
                deployment.multicast, GROUP, operation, 64 + value_size, via
            )
            outstanding.add(future)
            if len(outstanding) >= window:
                outstanding = await _await_some(outstanding, index + 1)
        if outstanding:
            await asyncio.wait_for(
                asyncio.gather(*outstanding), timeout=timeout
            )
        acked_seconds = time.perf_counter() - started_at
        acked = [tag for tag, future in pending.items() if future.done()]

        # Let the tail of the decision circulation reach every learner.
        deadline = loop.time() + timeout
        while any(len(sequences[name]) < values for name in names):
            if loop.time() > deadline:
                break
            await asyncio.sleep(0.01)
        wall_seconds = time.perf_counter() - started_at

        wire_frames = sum(
            live.runtime.network.frames_sent for live in cluster.nodes.values()
        )
        wire_bytes = sum(
            live.runtime.network.wire_bytes_sent for live in cluster.nodes.values()
        )

        # ------------------------------------------------------------------
        # observability: scrape each node's live endpoints (self-check),
        # gather spans from every node-local tracer, snapshot the registries.
        # ------------------------------------------------------------------
        endpoints: Dict[str, Dict[str, object]] = {}
        if serve_http:
            for name in names:
                live = cluster.node(name)
                if live.obs_address is None:
                    continue
                host, port = live.obs_address
                health_status, health_body = await _http_get(host, port, "/healthz")
                metrics_status, metrics_body = await _http_get(host, port, "/metrics")
                endpoints[name] = {
                    "address": f"{host}:{port}",
                    "healthz_status": health_status,
                    "healthz_ok": health_status == 200
                    and json.loads(health_body).get("status") == "ok",
                    "metrics_status": metrics_status,
                    "metrics_samples": sum(
                        1
                        for line in metrics_body.splitlines()
                        if line and not line.startswith("#")
                    ),
                }
        spans: List[Dict[str, object]] = []
        snapshots: Dict[str, Dict[str, object]] = {}
        for name in names:
            runtime = cluster.node(name).runtime
            spans.extend(runtime.obs.tracer.as_dicts())
            snapshots[name] = runtime.obs.snapshot()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    reference = sequences[names[0]]
    identical = all(sequences[name] == reference for name in names)
    lost_acked = {
        name: sorted(set(acked) - set(sequences[name])) for name in names
    }
    total_lost = sum(len(missing) for missing in lost_acked.values())
    positions = {name: machines[name].next_position(LOG) for name in names}
    state_identical = len(set(positions.values())) == 1
    endpoints_ok = all(
        entry["healthz_ok"] and entry["metrics_status"] == 200
        for entry in endpoints.values()
    )
    passed = (
        identical
        and total_lost == 0
        and state_identical
        and len(acked) == values
        and len(reference) == values
        and endpoints_ok
    )

    if trace_log is not None:
        with open(trace_log, "w", encoding="utf-8") as handle:
            for span in sorted(spans, key=lambda s: (s["trace_id"], s["start"])):
                handle.write(json.dumps(span, sort_keys=True) + "\n")
    trace_ids = sorted({span["trace_id"] for span in spans})
    stages_seen = sorted({span["stage"] for span in spans})

    throughput = len(acked) / acked_seconds if acked_seconds > 0 else 0.0
    report_lines = [
        f"live dLog over localhost TCP: {nodes} nodes, 1 ring, {values} appends of {value_size} B",
        f"  acked appends:           {len(acked)}/{values} in {acked_seconds:.3f} s wall",
        f"  wall-clock throughput:   {throughput:.1f} appends/s (window {window})",
        f"  TCP frames sent:         {wire_frames} ({wire_bytes} bytes on the wire)",
        f"  delivery sequences:      {'identical' if identical else 'DIVERGED'} across {nodes} learners",
        f"  lost acked writes:       {total_lost}",
        f"  dLog tail positions:     {sorted(set(positions.values()))}",
    ]
    if serve_http:
        report_lines.append(
            f"  /metrics + /healthz:     {'OK' if endpoints_ok else 'FAIL'}"
            f" across {len(endpoints)} nodes"
        )
    if tracing:
        report_lines.append(
            f"  causal traces:           {len(trace_ids)} traces, {len(spans)} spans"
            f" (stages: {', '.join(stages_seen) if stages_seen else 'none'})"
        )
        if trace_log is not None:
            report_lines.append(f"  trace log:               {trace_log}")
    report_lines.append(f"  verdict:                 {'PASS' if passed else 'FAIL'}")
    return {
        "experiment": "live",
        "backend": "live",
        "params": {
            "nodes": nodes,
            "values": values,
            "value_size": value_size,
            "window": window,
            "storage": mode.value,
        },
        "metrics": {
            "acked": len(acked),
            "acked_seconds": acked_seconds,
            "wall_seconds": wall_seconds,
            "throughput_ops": throughput,
            "wire_frames": wire_frames,
            "wire_bytes": wire_bytes,
            "lost_acked_writes": total_lost,
            "sequences_identical": identical,
            "state_identical": state_identical,
            "tail_positions": positions,
        },
        "observability": {
            **merge_snapshots(snapshots),
            "endpoints": endpoints,
            "endpoints_ok": endpoints_ok,
            "trace_ids": trace_ids,
            "stages_seen": stages_seen,
            "span_count": len(spans),
            "trace_log": trace_log,
        },
        "passed": passed,
        "report": "\n".join(report_lines),
    }


def run_live(**kwargs) -> Dict:
    """Synchronous wrapper around :func:`run_live_dlog` (own event loop)."""
    return asyncio.run(run_live_dlog(**kwargs))
