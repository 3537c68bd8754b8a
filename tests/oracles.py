"""Test-side access to the seed-verbatim oracle implementations.

Production selects an implementation only from what it can observe
(``g.ncon``, ``g.exactly_summable_weights()``, the engine's thread
budget). To run a whole pipeline on the oracles instead — a coarsening
stack, a full k-way partition — tests enter :func:`reference_kernels`,
which points each private vector stage function at its ``_reference``
twin for the duration of the block.
Single-stage comparisons call the ``_reference`` functions directly.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.partitioning import coarsen, hcoarsen, hrefine, refine


def _fm_pass_reference(g, part, allow, hill_limit, carry=None):
    """``refine._fm_pass``'s signature over the reference pass (no carry)."""
    return refine._fm_pass_reference(g, part, allow, hill_limit)


@contextmanager
def reference_kernels():
    """Run (hyper)graph FM, matching and contraction on the seed oracles.

    In-process only: pool workers import fresh modules, so keep
    ``jobs=None`` inside the block.
    """
    twins = (
        (refine, "_fm_pass", _fm_pass_reference),
        (hrefine, "_pass", hrefine._pass_reference),
        (coarsen, "_handshake_matching_vector", coarsen._handshake_matching_reference),
        (coarsen, "_contract_vector", coarsen._contract_reference),
        (hcoarsen, "_hcontract_vector", hcoarsen._hcontract_reference),
    )
    with ExitStack() as stack:
        for module, name, twin in twins:
            stack.enter_context(mock.patch.object(module, name, twin))
        yield
