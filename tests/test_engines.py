"""Atomic multicast conformance, through the facade on the simulator.

One mixed single-/multi-group workload runs through
:class:`~repro.AtomicMulticast`: three 3-member groups plus the global ring
that orders every multi-group message.  The safety oracle
(:mod:`repro.verify`) judges that one run's delivery log: total order per
group, that every subscriber delivers every message exactly once, and that
the order across groups is acyclic.  The last test checks that the global
ring reaches learners outside a message's destinations (the price Multi-Ring
Paxos pays for not being genuine).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro import AtomicMulticast
from repro.errors import MulticastError
from repro.sim.topology import lan_topology
from repro.verify import DeliveryLog, check

GROUPS = ("gA", "gB", "gC")


def _members(group: str) -> List[str]:
    return [f"{group}-{i}" for i in range(3)]


def _run_conformance_workload():
    """Submit 30 messages, every third to two groups; log every delivery.

    Returns ``(log, live, submissions, stray)``: the delivery log of every
    learner (a value carries its payload as its id), each learner's delivery
    cursor, each payload's destinations, and how many deliveries reached a
    learner whose home group was not a destination.
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
    log = DeliveryLog()
    stray = 0

    def hook(home: str, name: str) -> None:
        def on_delivery(delivery) -> None:
            nonlocal stray
            stray += home not in submissions[delivery.value.payload]

        log.attach(am.node(name), carried=lambda value: (value.payload,))
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
        live = log.cursors(am.node(name) for name in all_nodes)
    return log, live, submissions, stray


@pytest.fixture(scope="module")
def conformance_run():
    return _run_conformance_workload()


def _oracle(run):
    """The oracle's verdicts on the run, by property name."""
    log, live, submissions, _ = run
    return {result.name: result for result in check(log, submissions, live)}


def test_total_order_per_group(conformance_run):
    log = conformance_run[0]
    verdict = _oracle(conformance_run)["total-order"]
    assert verdict.passed, verdict.detail
    for group in GROUPS:
        for name in _members(group):
            assert log.sequences.get(name), f"{name}: no deliveries"


def test_validity_every_destination_delivers_exactly_once(conformance_run):
    log, _, submissions, _ = conformance_run
    verdicts = _oracle(conformance_run)
    for name in ("integrity", "no-acked-write-lost"):
        assert verdicts[name].passed, verdicts[name].detail
    assert verdicts["no-acked-write-lost"].detail.startswith("30 acked ids")
    # The oracle knows no destinations: each learner's home-group deliveries
    # are exactly the payloads addressed to that group.
    for group in GROUPS:
        expected = [payload for payload, dests in submissions.items() if group in dests]
        for name in _members(group):
            delivered = [log.carried[uid][0] for *_, uid, _t in log.sequences[name]]
            addressed = [payload for payload in delivered if group in submissions[payload]]
            assert sorted(addressed) == expected, f"{name}: delivered set != addressed set"
            assert len(addressed) == len(set(addressed)), f"{name}: duplicate delivery"


def test_multi_group_messages_keep_a_consistent_relative_order(conformance_run):
    log = conformance_run[0]
    verdict = _oracle(conformance_run)["acyclic-order"]
    assert verdict.passed, verdict.detail
    # Every learner delivered from the global ring, beside its own group.
    for name, entries in log.sequences.items():
        groups = {group for group, *_ in entries}
        assert "global" in groups and groups <= {name.split("-")[0], "global"}, groups


def test_the_global_ring_delivers_outside_the_destination_set(conformance_run):
    """Multi-Ring Paxos is not genuine: its global ring reaches every subscriber."""
    stray = conformance_run[3]
    assert stray > 0


def test_multi_group_messages_need_a_designated_route():
    with AtomicMulticast(seed=1, topology=lan_topology()) as am:
        for group in ("gA", "gB"):
            am.ring(group, _members(group))
        with pytest.raises(MulticastError, match="multi_group_route"):
            am.multicast(("gA", "gB"), None, 64)
