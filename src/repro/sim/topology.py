"""Network topologies: the paper's LAN cluster and EC2-like WAN.

A :class:`Topology` maps *sites* (a rack inside one datacenter, or an EC2
region) to pairwise one-way latencies and link bandwidths.  Processes are
attached to sites when they join the :class:`~repro.sim.world.World`; the
:class:`~repro.sim.network.Network` consults the topology for every message.

Two factory functions cover the paper's setups:

* :func:`lan_topology` -- the local cluster: 10 Gbps, 0.1 ms RTT
  (Section 8.1, "local experiments").
* :func:`wan_topology` -- four EC2 regions (eu-west-1, us-west-1, us-west-2,
  us-east-1) with published inter-region round-trip times (Section 8.1,
  "global experiments").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Topology",
    "lan_topology",
    "wan_topology",
    "matrix_topology",
    "EC2_REGION_RTT_MS",
    "EC2_REGIONS",
]


#: Approximate inter-region round-trip times in milliseconds for the four
#: regions used in the paper's horizontal-scalability experiment.  The exact
#: values are not in the paper; these are representative public measurements
#: and only influence absolute latency, not the scalability shape.
EC2_REGION_RTT_MS: Dict[Tuple[str, str], float] = {
    ("eu-west-1", "us-east-1"): 80.0,
    ("eu-west-1", "us-west-1"): 140.0,
    ("eu-west-1", "us-west-2"): 130.0,
    ("us-east-1", "us-west-1"): 75.0,
    ("us-east-1", "us-west-2"): 70.0,
    ("us-west-1", "us-west-2"): 22.0,
}

#: Region order used throughout the Figure 7 reproduction.
EC2_REGIONS: List[str] = ["eu-west-1", "us-west-1", "us-east-1", "us-west-2"]


@dataclass(slots=True)
class _Link:
    latency: float  # one-way seconds
    bandwidth_bps: float  # bits per second


class Topology:
    """Pairwise latency/bandwidth between named sites."""

    __slots__ = ("_sites", "_default", "_links", "version")

    def __init__(
        self,
        sites: Iterable[str],
        default_latency: float = 50e-6,
        default_bandwidth_bps: float = 10e9,
    ) -> None:
        self._sites: List[str] = list(dict.fromkeys(sites))
        if not self._sites:
            raise ConfigurationError("a topology needs at least one site")
        self._default = _Link(default_latency, default_bandwidth_bps)
        self._links: Dict[Tuple[str, str], _Link] = {}
        #: Bumped on every mutation (new site, changed link).  The network
        #: layer snapshots it to know when its per-site-pair link cache is
        #: stale without registering callbacks on the topology.
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def sites(self) -> List[str]:
        return list(self._sites)

    def has_site(self, site: str) -> bool:
        return site in self._sites

    def set_link(
        self,
        site_a: str,
        site_b: str,
        latency: float,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        """Set the symmetric link between two sites (one-way latency in seconds)."""
        for site in (site_a, site_b):
            if site not in self._sites:
                raise ConfigurationError(f"unknown site {site!r}")
        link = _Link(latency, bandwidth_bps or self._default.bandwidth_bps)
        self._links[(site_a, site_b)] = link
        self._links[(site_b, site_a)] = link
        self.version += 1

    def _link(self, src_site: str, dst_site: str) -> _Link:
        return self._links.get((src_site, dst_site), self._default)

    def latency(self, src_site: str, dst_site: str) -> float:
        """One-way propagation latency between two sites in seconds."""
        if src_site == dst_site:
            return self._default.latency
        return self._link(src_site, dst_site).latency

    def bandwidth(self, src_site: str, dst_site: str) -> float:
        """Link bandwidth in bits/second between two sites."""
        if src_site == dst_site:
            return self._default.bandwidth_bps
        return self._link(src_site, dst_site).bandwidth_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(sites={self._sites})"


def lan_topology(
    rtt: float = 0.1e-3,
    bandwidth_bps: float = 10e9,
    site: str = "lan",
) -> Topology:
    """The paper's local cluster: one site, 0.1 ms RTT, 10 Gbps links."""
    return Topology([site], default_latency=rtt / 2.0, default_bandwidth_bps=bandwidth_bps)


def matrix_topology(
    sites: Iterable[str],
    rtt_ms: Dict[Tuple[str, str], float],
    default_rtt_ms: float = 100.0,
    intra_site_rtt: float = 0.5e-3,
    intra_site_bandwidth_bps: float = 1e9,
    inter_site_bandwidth_bps: float = 200e6,
    bandwidth_bps: Optional[Dict[Tuple[str, str], float]] = None,
) -> Topology:
    """Build a topology from an explicit pairwise RTT matrix.

    ``rtt_ms`` maps unordered site pairs to round-trip times in milliseconds;
    missing pairs fall back to ``default_rtt_ms``.  ``bandwidth_bps`` may
    override individual links.  This is the generic factory behind the WAN
    presets used by the chaos scenario engine (:mod:`repro.scenarios`).
    """
    site_list = list(dict.fromkeys(sites))
    topo = Topology(
        site_list,
        default_latency=intra_site_rtt / 2.0,
        default_bandwidth_bps=intra_site_bandwidth_bps,
    )
    overrides = bandwidth_bps or {}
    for i, site_a in enumerate(site_list):
        for site_b in site_list[i + 1 :]:
            pair_rtt = rtt_ms.get((site_a, site_b), rtt_ms.get((site_b, site_a), default_rtt_ms))
            bandwidth = overrides.get(
                (site_a, site_b), overrides.get((site_b, site_a), inter_site_bandwidth_bps)
            )
            topo.set_link(
                site_a,
                site_b,
                latency=pair_rtt * 1e-3 / 2.0,
                bandwidth_bps=bandwidth,
            )
    return topo


def wan_topology(
    regions: Optional[Iterable[str]] = None,
    intra_region_rtt: float = 0.5e-3,
    intra_region_bandwidth_bps: float = 1e9,
    inter_region_bandwidth_bps: float = 200e6,
    rtt_matrix_ms: Optional[Dict[Tuple[str, str], float]] = None,
) -> Topology:
    """An EC2-like WAN with one site per region.

    ``rtt_matrix_ms`` maps unordered region pairs to round-trip times in
    milliseconds; missing pairs fall back to 100 ms RTT.
    """
    region_list = list(regions) if regions is not None else list(EC2_REGIONS)
    matrix = dict(EC2_REGION_RTT_MS)
    if rtt_matrix_ms:
        matrix.update(rtt_matrix_ms)
    topo = Topology(
        region_list,
        default_latency=intra_region_rtt / 2.0,
        default_bandwidth_bps=intra_region_bandwidth_bps,
    )
    for i, region_a in enumerate(region_list):
        for region_b in region_list[i + 1 :]:
            rtt_ms = matrix.get((region_a, region_b), matrix.get((region_b, region_a), 100.0))
            topo.set_link(
                region_a,
                region_b,
                latency=rtt_ms * 1e-3 / 2.0,
                bandwidth_bps=inter_region_bandwidth_bps,
            )
    return topo
