"""Span tracer installed, in the traced child only, around each layer's calls.

Nothing under ``src/`` knows about this file.  :func:`install` replaces the
functions at each layer boundary (class attributes, or the importing module's
name where a hot path bound the function at import) with wrappers that record
one span per call; :meth:`Tracer.restore` puts every original back.

A span is ``(name, start_ns, end_ns, span id, parent span id, request id)``
with ``name = "<layer>:<call>"``.  Each thread keeps its own stack, so a
span's parent is the wrapped call that was running on the same thread when it
started.  The request id is the ``Value.uid`` carried by an argument,
inherited from the parent span otherwise.  Every span is folded into per-name
``count / total / self`` sums as it closes; only the spans of every
``SAMPLE_EVERY``-th request are kept to be written out at exit.

Two clocks are read at each end of a span.  Start, end, ``total`` and the kept
duration samples are wall time (``perf_counter_ns``, comparable across
threads).  *Self time* is the thread's own CPU time (``thread_time_ns``):
the span's CPU time minus that of its child spans.  The generator and the
loop thread share one CPU and the GIL, so a span's wall time also covers
whatever the other thread ran meanwhile, and any wait for fsync; its CPU time
does not, which is why self times can be summed against the process's CPU
time.  The CPU time a thread spends *between* its outermost spans is measured
the same way, not inferred, and reported as ``outside``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SAMPLE_EVERY = 64

_now = time.perf_counter_ns
_cpu = time.thread_time_ns
_DONE = object()
#: Where the CPU time between a thread's outermost spans is summed.
OUTSIDE = "outside"


class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "next_id", "thread", "cpu_clock", "outside", "left_at")

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: name -> [count, total wall ns, self CPU ns]
        self.stats: Dict[str, List[int]] = {}
        self.spans: List[tuple] = []
        self.next_id = 0
        self.thread = threading.current_thread().name
        #: This thread's CPU clock, readable from any thread.
        self.cpu_clock = time.pthread_getcpuclockid(threading.get_ident())
        #: CPU ns spent between outermost spans, and when the last one ended.
        self.outside = 0
        self.left_at = _cpu()

    def outside_now(self) -> int:
        """``outside`` including the stretch still open; call with the GIL held."""
        if self.stack:
            return self.outside
        return self.outside + time.clock_gettime_ns(self.cpu_clock) - self.left_at


def value_uid(args: tuple) -> Optional[int]:
    """The ``Value.uid`` carried by a call's arguments, if any."""
    for arg in args:
        uid = getattr(getattr(arg, "value", arg), "uid", None)
        if uid is not None:
            return uid
    return None


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        #: span name -> durations in ns, for the names asked to keep them
        self.samples: Dict[str, List[int]] = {}
        self._baseline: Dict[str, List[int]] = {}
        self._sample_marks: Dict[str, int] = {}
        self.window_stats: Dict[str, List[int]] = {}
        self.window_samples: Dict[str, List[int]] = {}

    # -- recording ---------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        self._states.append(state)  # list.append is atomic under the GIL
        return state

    def wrap(
        self,
        fn: Callable,
        name: str,
        rid_of: Optional[Callable[[tuple], Optional[int]]] = None,
        keep_samples: bool = False,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        local = self._local
        new_state = self._state
        samples = self.samples.setdefault(name, []) if keep_samples else None

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            rid = rid_of(args) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent[1]
            state.next_id = span_id = state.next_id + 1
            frame = [0, rid, span_id]  # [child spans' CPU ns, request, span]
            cpu_start = _cpu()
            if parent is None:
                state.outside += cpu_start - state.left_at
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                cpu = _cpu() - cpu_start
                stack.pop()
                duration = end - start
                stat = state.stats.get(name)
                if stat is None:
                    stat = state.stats[name] = [0, 0, 0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += cpu - frame[0]
                if parent is not None:
                    parent[0] += cpu
                else:
                    state.left_at = cpu_start + cpu
                if samples is not None:
                    samples.append(duration)
                if rid is not None and rid % SAMPLE_EVERY == 0:
                    state.spans.append(
                        (name, start, end, span_id, parent[2] if parent else None, rid)
                    )

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, genfn: Callable, name: str) -> Callable:
        """A generator function whose every ``next()`` is one span."""

        def traced_generator(*args, **kwargs):
            inner = genfn(*args, **kwargs)
            step = self.wrap(lambda: next(inner, _DONE), name)
            try:
                while True:
                    item = step()
                    if item is _DONE:
                        return
                    yield item
            finally:
                inner.close()

        traced_generator.__wrapped__ = genfn
        return traced_generator

    # -- patching ----------------------------------------------------------
    def replace(self, owner: Any, attr: str, substitute: Any) -> None:
        """Set ``owner.attr`` (a class or a module) to ``substitute`` until :meth:`restore`."""
        self._patches.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, substitute)

    def patch(self, owner: Any, attr: str, name: str, generator: bool = False, **kwargs) -> None:
        """Replace ``owner.attr`` with its traced form, spans named ``name``."""
        original = getattr(owner, attr)
        if generator:
            self.replace(owner, attr, self.wrap_generator(original, name))
        else:
            self.replace(owner, attr, self.wrap(original, name, **kwargs))

    def restore(self) -> None:
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reading -----------------------------------------------------------
    def _totals(self) -> Dict[str, List[int]]:
        totals: Dict[str, List[int]] = {OUTSIDE: [0, 0, 0]}
        for state in list(self._states):
            totals[OUTSIDE][2] += state.outside_now()
            for name, stat in list(state.stats.items()):
                total = totals.setdefault(name, [0, 0, 0])
                for index in range(3):
                    total[index] += stat[index]
        return totals

    def begin_window(self) -> None:
        """Start the measured window: what came before is not reported."""
        self._baseline = self._totals()
        self._sample_marks = {name: len(values) for name, values in self.samples.items()}

    def end_window(self) -> None:
        """Fix ``window_stats`` (``name -> [count, total wall ns, self CPU ns]``,
        plus ``OUTSIDE``) and ``window_samples`` to what the window saw."""
        self.window_stats = {}
        for name, total in self._totals().items():
            base = self._baseline.get(name, (0, 0, 0))
            self.window_stats[name] = [total[index] - base[index] for index in range(3)]
        self.window_samples = {
            name: values[self._sample_marks.get(name, 0):]
            for name, values in self.samples.items()
        }

    def dump(self, path: str) -> int:
        """Write the kept spans as JSON lines, oldest first; returns how many."""
        rows = [
            (state.thread, span) for state in list(self._states) for span in list(state.spans)
        ]
        rows.sort(key=lambda row: row[1][1])
        with open(path, "w", encoding="utf-8") as handle:
            for thread, (name, start, end, span_id, parent, rid) in rows:
                handle.write(
                    json.dumps(
                        {
                            "request": rid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "thread": thread,
                            "span": f"{thread}/{span_id}",
                            "parent": f"{thread}/{parent}" if parent else None,
                        }
                    )
                    + "\n"
                )
        return len(rows)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary named in the README's per-layer table."""
    import repro.api as api
    import repro.runtime.live as live
    from repro.multiring.merge import DeterministicMerge
    from repro.paxos.storage import AcceptorStorage
    from repro.ringpaxos.batching import CoordinatorBatcher
    from repro.ringpaxos.node import RingHost
    from repro.ringpaxos.role import RingRole
    from repro.services.mrpstore.state import MRPStoreStateMachine
    from repro.sim.disk import Disk
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.smr.frontend import ProposerFrontend
    from repro.workloads.ycsb import YCSBWorkload

    patch = tracer.patch

    # api: submit() on the caller's thread, then the hand-off to the node's
    # propose_value() on the loop thread.  submit() creates the Value itself,
    # so the module's ``Value`` name is stood in for to learn its uid.
    submit_clock = threading.local()
    submit_started: Dict[int, int] = {}  # Value.uid -> when its submit() began
    inner_submit = api.AtomicMulticast.submit

    def submit(self, *args, **kwargs):
        submit_clock.started = _now()
        return inner_submit(self, *args, **kwargs)

    tracer.replace(api.AtomicMulticast, "submit", tracer.wrap(submit, "api:submit"))

    class _Value:
        @staticmethod
        def create(*args, **kwargs):
            value = api_value.create(*args, **kwargs)
            submit_started[value.uid] = submit_clock.started
            return value

    api_value = api.Value
    tracer.replace(api, "Value", _Value)
    handoff = tracer.samples.setdefault("api:handoff", [])
    inner_propose = RingHost.propose_value

    def propose_value(self, group, value):
        started = submit_started.pop(value.uid, None)
        if started is not None:
            handoff.append(_now() - started)
        return inner_propose(self, group, value)

    tracer.replace(
        RingHost, "propose_value", tracer.wrap(propose_value, "ringpaxos:propose_value", value_uid)
    )

    patch(YCSBWorkload, "next_request", "workloads:next_request")

    # runtime.live binds the codec functions at import: patch its names.
    patch(live, "frame_message", "runtime.codec:frame_message")
    patch(live, "iter_frames", "runtime.codec:iter_frames", generator=True)
    patch(live.LiveTransport, "send", "runtime.live:send", rid_of=value_uid)
    patch(live.LiveClock, "post", "runtime.live:post", rid_of=value_uid)
    patch(live.LiveFileStore, "write", "runtime.live:store_write", keep_samples=True)
    patch(live.LiveFileStore, "write_async", "runtime.live:store_write_async", keep_samples=True)

    # ringpaxos: the host's message entry point (the sim network calls
    # on_message directly, the live transport through deliver_message), plus
    # the role steps the CPU model defers through the event queue: they run
    # outside on_message on the sim backend, inside it on the live one, where
    # CPU cost is zero.
    patch(RingHost, "on_message", "ringpaxos:on_message", rid_of=value_uid)
    for step in ("_submit", "_intake", "_vote", "_apply_decision", "_forward"):
        patch(RingRole, step, f"ringpaxos:{step.lstrip('_')}", rid_of=value_uid)
    patch(CoordinatorBatcher, "offer", "ringpaxos:batch_offer", rid_of=value_uid)
    patch(CoordinatorBatcher, "flush", "ringpaxos:batch_flush")

    patch(AcceptorStorage, "log_vote", "paxos.storage:log_vote", rid_of=value_uid)
    patch(AcceptorStorage, "log_votes_range", "paxos.storage:log_votes_range", rid_of=value_uid)
    patch(AcceptorStorage, "note_decided", "paxos.storage:note_decided", rid_of=value_uid)

    patch(DeterministicMerge, "on_decision", "multiring:on_decision", rid_of=value_uid)

    patch(ProposerFrontend, "_on_submit", "smr:frontend")
    patch(MRPStoreStateMachine, "execute", "services:execute")

    patch(Simulator, "run", "sim:run")
    patch(Network, "send", "sim:network_send", rid_of=value_uid)
    patch(Disk, "write", "sim:disk_write")
    patch(Disk, "write_async", "sim:disk_write_async")
