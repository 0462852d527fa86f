"""Distributed commit of read-only join queries.

Distributed commit involves all processors that participated in the execution
of a query (paper §4).  Join queries are read-only, so they use the
*read-only optimisation* of two-phase commit: one round in which the
coordinator tells every remote participant to release its read locks and
collects one acknowledgement from each.  A query without a remote participant
commits without a message.  OLTP transactions commit locally on their home PE
(§5.3) and never come here.

The round charges CPU for every message at sender and receiver and waits for
the network transfer.
"""

from __future__ import annotations

from typing import Sequence

from repro.hardware.cpu import PRIORITY_QUERY
from repro.hardware.network import Network

__all__ = ["run_commit"]


def _pe_id(pe):
    """Endpoint id for topology-aware wire costs (None for bare test stubs)."""
    return getattr(pe, "pe_id", None)


def _deliver(sender, receiver, network: Network, priority: int):
    """Wire transfer plus receive-side CPU for one control message."""
    _, receive_cost = network.control_message_instructions()
    yield from network.transfer(256, src=_pe_id(sender), dst=_pe_id(receiver))
    yield from receiver.cpu.consume(receive_cost, priority=priority)


def _broadcast(env, sender, receivers, network: Network, priority: int):
    """Send one control message to every receiver.

    The sender's CPU is charged once for all sends (they are issued back to
    back); delivery and receive-side processing happen in parallel at the
    receivers, as in the real system.
    """
    send_cost, _ = network.control_message_instructions()
    yield from sender.cpu.consume(send_cost * len(receivers), priority=priority)
    yield env.all_of(
        [env.process(_deliver(sender, pe, network, priority)) for pe in receivers]
    )


def _gather(env, sender_pes, coordinator, network: Network, priority: int):
    """Every participant sends one reply; the coordinator receives them all."""
    send_cost, receive_cost = network.control_message_instructions()

    def reply(pe):
        yield from pe.cpu.consume(send_cost, priority=priority)
        yield from network.transfer(256, src=_pe_id(pe), dst=_pe_id(coordinator))

    yield env.all_of([env.process(reply(pe)) for pe in sender_pes])
    yield from coordinator.cpu.consume(receive_cost * len(sender_pes), priority=priority)


def run_commit(
    coordinator,
    participants: Sequence,
    network: Network,
    priority: int = PRIORITY_QUERY,
):
    """Simulation step running the read-only commit round.

    ``coordinator`` and ``participants`` are ProcessingElement-like objects
    exposing ``env`` and ``cpu``; a coordinator listed among the
    participants takes no part in the round.
    """
    remote = [pe for pe in participants if pe is not coordinator]
    if not remote:
        return
    env = coordinator.env
    yield from _broadcast(env, coordinator, remote, network, priority)
    yield from _gather(env, remote, coordinator, network, priority)
