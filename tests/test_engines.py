"""Atomic multicast conformance, through the facade on the simulator.

One mixed single-/multi-group workload runs through
:class:`~repro.AtomicMulticast`: three 3-member groups plus the global ring
that orders every multi-group message.  The tests read that one run and
check total order per group, that each destination delivers a message
exactly once, that multi-group messages keep one relative order, and that
the global ring reaches learners outside a message's destinations (the
price Multi-Ring Paxos pays for not being genuine).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro import AtomicMulticast
from repro.errors import MulticastError
from repro.sim.topology import lan_topology

GROUPS = ("gA", "gB", "gC")


def _members(group: str) -> List[str]:
    return [f"{group}-{i}" for i in range(3)]


def _run_conformance_workload():
    """Submit 30 messages, every third to two groups; record every delivery.

    Returns ``(sequences, submissions, stray)``: ``sequences`` maps
    ``(group, learner)`` to the payloads delivered at the learner that were
    addressed to its home group, in order; ``submissions`` maps payload to
    its destinations; ``stray`` counts deliveries at learners whose home
    group was not a destination.
    """
    am = AtomicMulticast(seed=5, topology=lan_topology())
    for group in GROUPS:
        am.ring(group, _members(group))
    all_nodes = [name for group in GROUPS for name in _members(group)]
    anchors = [_members(group)[0] for group in GROUPS]
    am.ring(
        "global",
        all_nodes,
        acceptors=anchors,
        proposers=anchors,
        learners=all_nodes,
        multi_group_route=True,
    )
    submissions: Dict[int, Tuple[str, ...]] = {}
    sequences: Dict[Tuple[str, str], List[int]] = {
        (group, name): [] for group in GROUPS for name in _members(group)
    }
    stray = 0

    def hook(home: str, name: str) -> None:
        def on_delivery(delivery) -> None:
            nonlocal stray
            dests = submissions[delivery.value.payload]
            if home in dests:
                sequences[(home, name)].append(delivery.value.payload)
            else:
                stray += 1

        am.node(name).on_deliver(on_delivery)

    for group in GROUPS:
        for name in _members(group):
            hook(group, name)

    patterns = [("gA", "gB"), ("gB", "gC"), ("gA", "gC")]
    with am:
        for i in range(30):
            dests = patterns[(i // 3) % len(patterns)] if i % 3 == 2 else (GROUPS[i % len(GROUPS)],)
            submissions[i] = dests
            am.world.sim.call_at(0.05 + i * 0.002, am.multicast, dests, i, 128)
        am.run(until=1.5)
    return sequences, submissions, stray


@pytest.fixture(scope="module")
def conformance_run():
    return _run_conformance_workload()


def test_total_order_per_group(conformance_run):
    sequences, _, _ = conformance_run
    for group in GROUPS:
        learner_seqs = [seq for (g, _), seq in sequences.items() if g == group]
        assert learner_seqs[0], f"{group}: no deliveries recorded"
        for seq in learner_seqs[1:]:
            assert seq == learner_seqs[0], (
                f"{group}: learners disagree on the delivery order"
            )


def test_validity_every_destination_delivers_exactly_once(conformance_run):
    sequences, submissions, _ = conformance_run
    for group in GROUPS:
        witness_seq = sequences[(group, f"{group}-0")]
        expected = [payload for payload, dests in submissions.items() if group in dests]
        assert sorted(witness_seq) == sorted(expected), (
            f"{group}: delivered set != addressed set"
        )
        assert len(witness_seq) == len(set(witness_seq)), f"{group}: duplicate delivery"


def test_multi_group_messages_keep_a_consistent_relative_order(conformance_run):
    sequences, submissions, _ = conformance_run
    for first, second in (("gA", "gB"), ("gB", "gC"), ("gA", "gC")):
        shared = {p for p, dests in submissions.items() if first in dests and second in dests}
        order_first = [p for p in sequences[(first, f"{first}-0")] if p in shared]
        order_second = [p for p in sequences[(second, f"{second}-0")] if p in shared]
        assert order_first == order_second, (
            f"{first} and {second} disagree on multi-group order"
        )


def test_the_global_ring_delivers_outside_the_destination_set(conformance_run):
    """Multi-Ring Paxos is not genuine: its global ring reaches every subscriber."""
    _, _, stray = conformance_run
    assert stray > 0


def test_multi_group_messages_need_a_designated_route():
    with AtomicMulticast(seed=1, topology=lan_topology()) as am:
        for group in ("gA", "gB"):
            am.ring(group, _members(group))
        with pytest.raises(MulticastError, match="multi_group_route"):
            am.multicast(("gA", "gB"), None, 64)
