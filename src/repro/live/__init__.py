"""Live-mode launcher: run the protocol stack over real localhost TCP.

``python -m repro.live --smoke`` boots the dLog service on the live backend
(:mod:`repro.runtime.live`) through the same :class:`~repro.services.dlog.DLog`
builder the simulator uses: one log, so one ring of ``nodes`` acceptors (the
proposer front-ends) and ``nodes`` replicas, plus one closed-loop client
machine -- 7 processes for the smoke run, the paper's Figure 5 shape scaled
down.  Every process is an asyncio task set with its own TCP server, every
protocol message crosses a real socket through the versioned codec, and the
run reports *wall-clock* throughput into ``BENCH_live.json``.

The safety oracle (:mod:`repro.verify`) judges the run end to end from a log
of every replica's deliveries and the ids the client saw acked: total order,
integrity, acyclic cross-group order, and no acked append lost.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import MultiRingConfig
from repro.obs.metrics import merge_snapshots
from repro.runtime.interfaces import StorageMode
from repro.runtime.live import LiveDeployment
from repro.services.dlog import DLog
from repro.smr.client import ClosedLoopClient
from repro.verify import DeliveryLog, acks_of, check
from repro.workloads.simple import AppendWorkload

__all__ = ["run_live_dlog", "run_live"]

#: The single log of the smoke deployment (Figure 5 scaled down).
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


async def _until(condition: Callable[[], bool], timeout: float) -> bool:
    """Poll ``condition`` on the running loop; False if ``timeout`` passes first."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(0.005)
    return True


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

    ``nodes`` is the ring's acceptor count and its replica count.  ``window``
    bounds the number of outstanding appends (one closed-loop client machine
    with ``window`` threads); the client stops itself when ``values`` appends
    are acked, with up to ``window - 1`` more issued and left unanswered.
    ``storage`` selects the acceptor log mode: ``memory`` or any
    :class:`StorageMode` value; durable modes append to real files under
    ``storage_dir``, as do the replicas' spill disks (a temporary directory
    when none is given).

    Observability: ``tracing`` samples causal traces (every
    ``trace_sample``-th proposed value), ``serve_http`` starts the per-node
    ``/metrics`` + ``/healthz`` listeners (scraped once at the end of the run
    as a self-check), and ``trace_log`` dumps all sampled spans to a JSONL
    file renderable with ``python -m repro.obs.report``.
    """
    if nodes < 1:
        raise ValueError("the live deployment needs at least one node")
    mode = StorageMode.MEMORY if storage == "memory" else StorageMode(storage)
    with contextlib.ExitStack() as scratch:
        if storage_dir is None:
            # DLog gives every replica an ASYNC_SSD spill disk, which the live
            # runtime refuses to fake without a directory.
            storage_dir = scratch.enter_context(tempfile.TemporaryDirectory())
        cluster = LiveDeployment(
            seed=seed,
            storage_dir=storage_dir,
            tracing=tracing,
            trace_sample=trace_sample,
            serve_http=serve_http,
        )
        # Rate leveling only matters when merging multiple rings; on the single
        # smoke ring it would stream λ·Δ skip instances over TCP for nothing.
        dlog = DLog(
            cluster,
            logs=(LOG,),
            replicas=nodes,
            acceptors_per_log=nodes,
            storage_mode=mode,
            use_global_ring=False,
            config=MultiRingConfig.datacenter(rate_leveling=False),
        )
        client = ClosedLoopClient(
            cluster.runtime_of("client"),
            "client",
            AppendWorkload(dlog, (LOG,), append_size=value_size),
            dlog.frontends_for_client(0),
            threads=window,
        )
        # The client stops itself, on its own node, at the completion that
        # makes ``values``: a stop sent from here after polling would arrive
        # while it kept issuing.
        pace = client.on_complete

        def on_complete(context) -> None:
            if client.completed >= values:
                client.crash()
            else:
                pace(context)

        client.on_complete = on_complete
        acked_ids = acks_of(client)
        replicas = dlog.replica_nodes
        # An observation beside the service, not a second way to build it.
        log = DeliveryLog()
        for replica in replicas:
            log.attach(replica)

        async with cluster:
            started_at = time.perf_counter()
            if not await _until(lambda: not client.alive, timeout):
                raise asyncio.TimeoutError(
                    f"{client.completed}/{values} appends acked within {timeout}s"
                )
            acked = client.completed
            acked_seconds = time.perf_counter() - started_at

            # Let every command the client issued reach every replica.
            await _until(
                lambda: all(r.commands_executed >= client.issued for r in replicas), timeout
            )
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
            spans: List[Dict[str, object]] = []
            snapshots: Dict[str, Dict[str, object]] = {}
            for name, live in cluster.nodes.items():
                spans.extend(live.runtime.obs.tracer.as_dicts())
                snapshots[name] = live.runtime.obs.snapshot()
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

    invariants = check(log, acked_ids, log.cursors(replicas))
    judged = {replica.name: log.counts().get(replica.name, 0) for replica in replicas}
    safe = all(result.passed for result in invariants) and all(judged.values())
    positions = {
        replica.name: replica.state_machine.next_position(LOG) for replica in replicas
    }
    endpoints_ok = all(
        entry["healthz_ok"] and entry["metrics_status"] == 200
        for entry in endpoints.values()
    )
    passed = safe and acked >= values and endpoints_ok

    if trace_log is not None:
        with open(trace_log, "w", encoding="utf-8") as handle:
            for span in sorted(spans, key=lambda s: (s["trace_id"], s["start"])):
                handle.write(json.dumps(span, sort_keys=True) + "\n")
    trace_ids = sorted({span["trace_id"] for span in spans})
    stages_seen = sorted({span["stage"] for span in spans})

    throughput = acked / acked_seconds if acked_seconds > 0 else 0.0
    report_lines = [
        f"live dLog over localhost TCP: 1 client, 1 ring of {nodes} acceptors + {nodes} replicas,"
        f" {values} appends of {value_size} B",
        f"  acked appends:           {acked} (asked for {values}) in {acked_seconds:.3f} s wall",
        f"  wall-clock throughput:   {throughput:.1f} appends/s (window {window})",
        f"  TCP frames sent:         {wire_frames} ({wire_bytes} bytes on the wire)",
        f"  dLog tail positions:     {sorted(set(positions.values()))}",
        f"  deliveries judged:       {judged}",
        *(
            f"  {result.name + ':':<24} {'PASS' if result.passed else 'FAIL'} ({result.detail})"
            for result in invariants
        ),
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
            "acked": acked,
            "acked_seconds": acked_seconds,
            "wall_seconds": wall_seconds,
            "throughput_ops": throughput,
            "wire_frames": wire_frames,
            "wire_bytes": wire_bytes,
            "tail_positions": positions,
            "oracle": [result.as_dict() for result in invariants],
            "deliveries_judged": judged,
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
