"""Interconnection network between processing elements.

The network transmits fixed-size packets (paper §4); messages larger than a
packet are disassembled into the required number of packets.  Most of the
communication cost is CPU time at the sender (send + copy per packet) and the
receiver (receive + copy per packet); the wire itself is a scalable
high-speed interconnect and is modelled with a small per-packet latency plus
bandwidth-limited transfer time.

The network object is purely computational (no queueing): the caller charges
the CPU costs on the appropriate :class:`~repro.hardware.cpu.CpuServer` and
waits for :meth:`transfer_time`.  The paper treats the network as
non-bottleneck, so transfers never queue for the wire.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.config.parameters import InstructionCosts, NetworkConfig, TopologyConfig
from repro.sim import BatchWalk, Environment, Timeout, coalescing_enabled

__all__ = ["Network"]

#: A transfer destination: one PE, or several for multi-destination sends
#: (redistribution bursts), where the slowest tier bounds the wire time.
Endpoint = Union[int, Iterable[int]]


class Network:
    """Packet-based interconnect with CPU-cost accounting helpers.

    The wire time of each message depends on the (src, dst) tier of the
    :class:`TopologyConfig`: crossing racks or regions multiplies the
    per-packet latency and divides the bandwidth by the tier's factors.
    Messages with unknown endpoints travel at tier 0, the Fig. 4 wire.
    """

    def __init__(
        self,
        env: Environment,
        config: NetworkConfig,
        costs: InstructionCosts,
        topology: Optional[TopologyConfig] = None,
        num_pe: int = 0,
    ):
        self.env = env
        self.config = config
        self.costs = costs
        self._coalesce = coalescing_enabled()
        self._topology = topology if topology is not None else TopologyConfig()
        self._num_pe = num_pe

    # -- size helpers -------------------------------------------------------
    def packets_for(self, nbytes: int) -> int:
        """Number of packets for a message of ``nbytes``."""
        return self.config.packets_for(nbytes)

    # -- CPU cost helpers -----------------------------------------------------
    def send_instructions(self, nbytes: int) -> float:
        """CPU instructions charged at the sender for one message."""
        packets = self.packets_for(nbytes)
        return packets * (self.costs.send_message + self.costs.copy_message_packet)

    def control_message_instructions(self) -> tuple[float, float]:
        """(sender, receiver) CPU instructions for a small control message."""
        return (
            float(self.costs.send_message),
            float(self.costs.receive_message),
        )

    # -- wire time ------------------------------------------------------------
    def _tier(self, src: Optional[int], dst: Optional[Endpoint]) -> int:
        """Communication tier for src -> dst (max tier over multi-dst sends);
        0 for unknown endpoints and, without a walk, on a single rack."""
        topology = self._topology
        if topology.racks <= 1 or src is None or dst is None:
            return 0
        if isinstance(dst, int):
            return topology.tier_between(src, dst, self._num_pe)
        return max(
            (topology.tier_between(src, d, self._num_pe) for d in dst),
            default=0,
        )

    def transfer_time(
        self, nbytes: int, src: Optional[int] = None, dst: Optional[Endpoint] = None
    ) -> float:
        """Wire latency + transfer time for one message; the (src, dst) tier
        scales latency and bandwidth."""
        topology = self._topology
        tier = self._tier(src, dst)
        packets = self.config.packets_for(nbytes)
        latency = self.config.wire_latency * topology.latency_factor(tier)
        bandwidth = self.config.bandwidth_bytes_per_s / topology.bandwidth_factor(tier)
        return packets * latency + nbytes / bandwidth

    def transfer(self, nbytes: int, src: Optional[int] = None, dst: Optional[Endpoint] = None):
        """Simulation step: wait out the wire time of one message."""
        yield Timeout(self.env, self.transfer_time(nbytes, src, dst))

    def transfer_chain(
        self, sizes: Iterable[int], src: Optional[int] = None, dst: Optional[Endpoint] = None
    ):
        """Simulation step: a burst of back-to-back transfers by one sender.

        The burst collapses into a single macro-event whose end time folds
        the per-message delays exactly as sequential :meth:`transfer` calls
        would advance the clock, so the completion time is bit-identical.

        Callers that pre-aggregate a burst into one message (the common idiom
        in the execution layer) need no chain at all; this is for flows whose
        messages each pay their own per-packet wire latency.
        """
        sizes = list(sizes)
        if not sizes:
            return
        env = self.env
        if self._coalesce and len(sizes) > 1:
            # Interior boundaries and the end repeat the unbatched loop's
            # float fold; the walker's hop markers keep heap pushes at the
            # same simulated instants as the per-message timeouts would be.
            end = env._now
            boundaries = []
            for nbytes in sizes:
                end += self.transfer_time(nbytes, src, dst)
                boundaries.append(end)
            boundaries.pop()  # the chain end is the macro-event itself
            walk = BatchWalk(env, boundaries, end)
            try:
                yield walk.event
            finally:
                walk._alive = False
            env.events_coalesced += max(0, len(sizes) - 1 - walk.hops)
            return
        for nbytes in sizes:
            yield from self.transfer(nbytes, src, dst)
