"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import pytest

from repro.config import MultiRingConfig, RingConfig
from repro.multiring.deployment import Deployment, RingSpec
from repro.runtime.interfaces import StorageMode
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.types import unpack_value

#: The simulator's deterministic benchmark numbers at smoke scale, asserted
#: with exact equality by the tests that run those experiments (the two
#: latency means within a relative 1e-12: 3.12's ``sum()`` is compensated).
#: A change to the model that moves one re-records the file in the same commit.
BENCH_GATES = json.loads((Path(__file__).parent / "golden" / "bench_gates.json").read_text())


@pytest.fixture
def world() -> World:
    """A fresh LAN world with a fixed seed."""
    return World(topology=lan_topology(), seed=123, timeline_window=0.5)


@pytest.fixture
def wan_world() -> World:
    from repro.sim.topology import wan_topology

    return World(topology=wan_topology(), seed=123, default_site="eu-west-1")


def build_two_ring_deployment(world: World, config: MultiRingConfig | None = None) -> Deployment:
    """The Figure 2(c) deployment: two rings, L1/L2 on both, L3 on ring-2 only."""
    deployment = Deployment(world, config or MultiRingConfig.datacenter())
    deployment.add_ring(
        RingSpec(
            group="ring-1",
            members=["a1", "a2", "a3", "L1", "L2"],
            acceptors=["a1", "a2", "a3"],
            proposers=["a1", "a2", "a3"],
            learners=["L1", "L2"],
        )
    )
    deployment.add_ring(
        RingSpec(
            group="ring-2",
            members=["b1", "b2", "b3", "L1", "L2", "L3"],
            acceptors=["b1", "b2", "b3"],
            proposers=["b1", "b2", "b3"],
            learners=["L1", "L2", "L3"],
        )
    )
    return deployment


def collect_deliveries(deployment: Deployment, learners) -> dict:
    """Attach delivery recorders to the given learner nodes."""
    deliveries = {name: [] for name in learners}
    for name in learners:
        deployment.node(name).on_deliver(
            lambda d, name=name: deliveries[name].append((d.group, d.instance, d.value.payload))
        )
    return deliveries


class SingleRing:
    """One Ring Paxos ring built through :class:`Deployment`, for single-ring tests.

    Every member plays all three roles unless ``acceptors`` / ``proposers`` /
    ``learners`` say otherwise, and the ring runs under ``ring_config``
    (default ``RingConfig(storage_mode=storage_mode)``).  Rate leveling is
    off and its interval lies past any test's horizon, so the ring starts
    only the instances its values need and no leveling tick resets the
    coordinator's level counter.  Deliveries are read from each node's
    decision sink: every value of every decided instance, in instance order,
    ahead of the merge.
    """

    GROUP = "broadcast"

    def __init__(
        self,
        world: World,
        members,
        *,
        acceptors=None,
        proposers=None,
        learners=None,
        storage_mode: StorageMode = StorageMode.MEMORY,
        ring_config: RingConfig | None = None,
    ) -> None:
        self.deployment = Deployment(world, MultiRingConfig.datacenter(rate_leveling=False, delta=3600.0))
        self.descriptor = self.deployment.add_ring(
            RingSpec(
                group=self.GROUP,
                members=list(members),
                acceptors=acceptors,
                proposers=proposers,
                learners=learners,
                storage_mode=storage_mode,
            ),
            ring_config=ring_config or RingConfig(storage_mode=storage_mode),
        )
        self.hosts = self.deployment.nodes
        self._deliveries = {name: [] for name in members}
        self._callbacks = []
        for name, host in self.hosts.items():
            host.add_decision_sink(partial(self._on_decision, name))

    def _on_decision(self, learner, group, instance, value) -> None:
        if value.is_skip:
            return
        for inner in unpack_value(value):
            self._deliveries[learner].append((instance, inner))
            for callback in self._callbacks:
                callback(learner, instance, inner)

    def on_deliver(self, callback) -> None:
        """Call ``callback(learner, instance, value)`` for every delivered value."""
        self._callbacks.append(callback)

    def broadcast(self, payload, size_bytes: int, via: str | None = None):
        """Propose ``payload`` through ``via`` (default: the first proposer)."""
        return self.hosts[via or self.descriptor.proposers[0]].propose(self.GROUP, payload, size_bytes)

    def deliveries(self, learner: str) -> list:
        """``(instance, value)`` pairs delivered at ``learner`` so far, in order."""
        return list(self._deliveries[learner])

    def delivered_payloads(self, learner: str) -> list:
        return [value.payload for _, value in self._deliveries[learner]]

    @property
    def coordinator(self):
        return self.deployment.coordinator_of(self.GROUP)
