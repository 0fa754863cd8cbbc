"""WAN topology presets for the chaos scenario engine.

The paper evaluates DLog and MRP-Store "deployed across Amazon EC2 regions";
the chaos campaigns replay that geography.  Each preset is a named pairwise
RTT/bandwidth matrix compiled into a :class:`~repro.sim.topology.Topology`
through :func:`~repro.sim.topology.matrix_topology`:

* ``wan3`` -- three regions on three continents (EU, US east coast,
  Singapore), the smallest deployment with genuinely asymmetric RTTs;
* ``dc8`` -- eight datacenters modeled on the EC2 regions available at the
  time of the paper, for campaign runs at global scale.

RTT values are representative public inter-region measurements; as with
:data:`~repro.sim.topology.EC2_REGION_RTT_MS` they shape absolute latency,
not the qualitative behaviour under faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.sim.topology import Topology, matrix_topology

__all__ = ["TopologyPreset", "TOPOLOGY_PRESETS", "get_preset", "WAN3", "DC8"]


@dataclass(frozen=True)
class TopologyPreset:
    """A named WAN geography: sites plus their pairwise RTT matrix."""

    name: str
    description: str
    sites: Tuple[str, ...]
    rtt_ms: Dict[Tuple[str, str], float] = field(default_factory=dict)
    default_rtt_ms: float = 100.0
    intra_site_rtt: float = 0.5e-3
    intra_site_bandwidth_bps: float = 1e9
    inter_site_bandwidth_bps: float = 200e6

    def __post_init__(self) -> None:
        # A typo'd site in the matrix would silently fall back to the
        # default RTT in matrix_topology; make the preset self-checking.
        known = set(self.sites)
        for pair in self.rtt_ms:
            unknown = set(pair) - known
            if unknown:
                raise ConfigurationError(
                    f"preset {self.name!r}: rtt_ms pair {pair} names unknown "
                    f"site(s) {sorted(unknown)}"
                )

    def build(self) -> Topology:
        """Compile the preset into a simulator topology."""
        return matrix_topology(
            self.sites,
            self.rtt_ms,
            default_rtt_ms=self.default_rtt_ms,
            intra_site_rtt=self.intra_site_rtt,
            intra_site_bandwidth_bps=self.intra_site_bandwidth_bps,
            inter_site_bandwidth_bps=self.inter_site_bandwidth_bps,
        )

    def partition_sites(self, partitions: int) -> Dict[str, str]:
        """Round-robin placement of ``partitions`` named ``p0..pN`` onto sites."""
        return {f"p{i}": self.sites[i % len(self.sites)] for i in range(partitions)}


WAN3 = TopologyPreset(
    name="wan3",
    description="Three regions on three continents (EU, US east, Singapore)",
    sites=("eu-west-1", "us-east-1", "ap-southeast-1"),
    rtt_ms={
        ("eu-west-1", "us-east-1"): 80.0,
        ("eu-west-1", "ap-southeast-1"): 170.0,
        ("us-east-1", "ap-southeast-1"): 215.0,
    },
)

DC8 = TopologyPreset(
    name="dc8",
    description="Eight EC2-like datacenters across four continents",
    sites=(
        "us-east-1",
        "us-west-1",
        "us-west-2",
        "eu-west-1",
        "eu-central-1",
        "ap-southeast-1",
        "ap-northeast-1",
        "sa-east-1",
    ),
    rtt_ms={
        ("us-east-1", "us-west-1"): 75.0,
        ("us-east-1", "us-west-2"): 70.0,
        ("us-west-1", "us-west-2"): 22.0,
        ("us-east-1", "eu-west-1"): 80.0,
        ("us-east-1", "eu-central-1"): 90.0,
        ("us-west-1", "eu-west-1"): 140.0,
        ("us-west-1", "eu-central-1"): 150.0,
        ("us-west-2", "eu-west-1"): 130.0,
        ("us-west-2", "eu-central-1"): 145.0,
        ("eu-west-1", "eu-central-1"): 25.0,
        ("us-east-1", "ap-southeast-1"): 215.0,
        ("us-west-1", "ap-southeast-1"): 170.0,
        ("us-west-2", "ap-southeast-1"): 165.0,
        ("eu-west-1", "ap-southeast-1"): 170.0,
        ("eu-central-1", "ap-southeast-1"): 160.0,
        ("us-east-1", "ap-northeast-1"): 170.0,
        ("us-west-1", "ap-northeast-1"): 110.0,
        ("us-west-2", "ap-northeast-1"): 100.0,
        ("eu-west-1", "ap-northeast-1"): 210.0,
        ("eu-central-1", "ap-northeast-1"): 225.0,
        ("ap-southeast-1", "ap-northeast-1"): 70.0,
        ("us-east-1", "sa-east-1"): 115.0,
        ("us-west-1", "sa-east-1"): 180.0,
        ("us-west-2", "sa-east-1"): 175.0,
        ("eu-west-1", "sa-east-1"): 190.0,
        ("eu-central-1", "sa-east-1"): 205.0,
        ("ap-southeast-1", "sa-east-1"): 320.0,
        ("ap-northeast-1", "sa-east-1"): 260.0,
    },
)

TOPOLOGY_PRESETS: Dict[str, TopologyPreset] = {
    preset.name: preset for preset in (WAN3, DC8)
}


def get_preset(name: str) -> TopologyPreset:
    """Look up a topology preset by name."""
    try:
        return TOPOLOGY_PRESETS[name]
    except KeyError:
        known: List[str] = sorted(TOPOLOGY_PRESETS)
        raise ConfigurationError(
            f"unknown topology preset {name!r}; known presets: {known}"
        ) from None
