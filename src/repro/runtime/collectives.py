"""Alternative communication algorithms for the expand/fold phases.

The paper notes its Epetra-based communication "is essentially
point-to-point, which may not be optimal (see [18])" — Hendrickson, Leland
& Plimpton's structured algorithms can beat direct sends when a process
must reach many peers. This module models the three classical options so
the trade can be quantified (``benchmarks/bench_ablation_collectives.py``):

``direct``
    One message per (source, destination) pair — what the plans schedule
    and what Epetra's Import/Export does. Latency cost scales with the
    number of distinct peers.
``tree``
    Each phase routed through a binomial tree per destination set:
    latency ~ alpha * ceil(log2 peers), but every payload is forwarded
    ~log p times, multiplying volume.
``hypercube``
    The HLP fold/expand on a d-dimensional hypercube (p = 2^d): exactly d
    message rounds regardless of the communication pattern, with payloads
    combined per dimension; volume inflates by the routing detour but
    latency is a flat d * alpha.

These are *cost models* of the same data movement (the numerics are
identical — tested); what changes is how the runtime charges time for a
given :class:`repro.runtime.plan.CommPlan`.
"""

from __future__ import annotations

import numpy as np

from .machine import MachineModel
from .plan import CommPlan

__all__ = ["phase_time_direct", "phase_time_tree", "phase_time_hypercube",
           "COLLECTIVE_ALGORITHMS", "phase_time"]


def phase_time_direct(plan: CommPlan, machine: MachineModel) -> float:
    """Point-to-point: the plan's native cost (delegates to the plan)."""
    return plan.phase_time(machine)


def phase_time_tree(plan: CommPlan, machine: MachineModel) -> float:
    """Binomial-tree routing per rank's send set.

    A rank with s distinct destinations pays ``alpha * ceil(log2(s+1))``
    latency instead of ``alpha * s``, but each of its payload words is
    stored-and-forwarded up to ``ceil(log2(s+1))`` times; receives
    symmetric. A win exactly when a rank talks to many peers with small
    payloads — the 1D scale-free regime.
    """
    if plan.nprocs == 0:
        return 0.0
    sizes = plan.message_sizes()
    sent_n = plan.sent_counts()
    recv_n = plan.recv_counts()
    sent_v = np.zeros(plan.nprocs)
    recv_v = np.zeros(plan.nprocs)
    np.add.at(sent_v, plan.src, sizes)
    np.add.at(recv_v, plan.dst, sizes)
    hops_s = np.ceil(np.log2(sent_n + 1.0))
    hops_r = np.ceil(np.log2(recv_n + 1.0))
    per_rank = (
        machine.alpha * (hops_s + hops_r)
        + machine.beta * (sent_v * np.maximum(hops_s, 1.0) + recv_v * np.maximum(hops_r, 1.0))
    )
    return float(per_rank.max())


def phase_time_hypercube(plan: CommPlan, machine: MachineModel) -> float:
    """HLP hypercube fold: d = ceil(log2 p) rounds, payloads combined.

    Every rank participates in all d rounds (alpha * d latency, flat). The
    routed volume per rank per round is bounded by its total traffic: a
    payload from s to t travels along the dimensions where s and t differ
    (on average d/2 hops), so we charge ``beta * (d/2) * traffic`` spread
    over rounds with the busiest rank setting the pace.
    """
    p = plan.nprocs
    if p <= 1:
        return 0.0
    d = int(np.ceil(np.log2(p)))
    sizes = plan.message_sizes()
    traffic = np.zeros(p)
    np.add.at(traffic, plan.src, sizes)
    np.add.at(traffic, plan.dst, sizes)
    max_traffic = float(traffic.max()) if len(traffic) else 0.0
    return d * machine.alpha + machine.beta * (d / 2.0) * max_traffic


COLLECTIVE_ALGORITHMS = {
    "direct": phase_time_direct,
    "tree": phase_time_tree,
    "hypercube": phase_time_hypercube,
}


def phase_time(
    plan: CommPlan, machine: MachineModel, algorithm: str = "direct"
) -> float:
    """Phase cost under the named communication algorithm."""
    try:
        fn = COLLECTIVE_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(COLLECTIVE_ALGORITHMS)}"
        ) from None
    return fn(plan, machine)
