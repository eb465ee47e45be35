"""The dynprof bootstrap snippets (Figure 6, Section 3.4).

MPI applications must not receive VT instrumentation until every rank
has completed MPI_Init (Vampirtrace initialises its own structures
inside the MPI_Init wrapper).  dynprof therefore patches the **end of
MPI_Init**, immediately upon loading the application, with:

.. code-block:: c

    MPI_Barrier(MPI_COMM_WORLD);   /* sync after everyone's MPI_Init   */
    DPCL_callback();               /* "it is safe to instrument now"   */
    DYNVT_spin();                  /* hold still until the tool is done */
    MPI_Barrier(MPI_COMM_WORLD);   /* re-sync: spin release is skewed  */

For OpenMP applications the Guide compiler plants ``VT_init`` at the top
of main — guaranteed single-threaded — so the patched code needs only
the callback and the spin, no barriers.  MPI applications under fault
injection get that barrier-free variant too (see :func:`vt_init_bootstrap`).
"""

from __future__ import annotations

from ..program import CallFunc, Const, Sequence, Snippet, SpinWait

__all__ = [
    "SPIN_VARIABLE",
    "INIT_CALLBACK_TAG",
    "mpi_init_bootstrap",
    "vt_init_bootstrap",
    "bootstrap_anchor",
]

#: The target-process variable the spin loop watches; the instrumenter
#: pokes it (through the daemon) once deferred instrumentation is in.
SPIN_VARIABLE = "DYNVT_go"

#: Callback tag signalling "MPI/VT initialisation complete on this rank".
INIT_CALLBACK_TAG = "dynprof:init-done"


def mpi_init_bootstrap() -> Snippet:
    """The snippet patched into the exit of MPI_Init (Figure 6)."""
    return Sequence([
        CallFunc("MPI_Barrier"),
        CallFunc("DPCL_callback", [Const(INIT_CALLBACK_TAG)]),
        SpinWait(SPIN_VARIABLE),
        CallFunc("MPI_Barrier"),
    ])


def vt_init_bootstrap() -> Snippet:
    """The barrier-free bootstrap: the callback and the spin only.

    It serves two cases:

    * OpenMP apps, at the exit of VT_init — VT_init runs in a guaranteed
      single-threaded region at the beginning of main, so there is
      nothing to synchronise.
    * MPI apps under fault injection, at the exit of MPI_Init.
      Quarantining a rank while the survivors run the two-barrier
      Figure 6 bootstrap would hang MPI_Barrier (B+2 barrier calls on
      survivors vs B on the quarantined rank), so *every* rank gets this
      variant and partial probe coverage can never turn into a
      collective mismatch.  The cost is the re-synchronisation the
      second barrier provided: released ranks enter main computation
      with whatever skew the per-rank spin releases had.
    """
    return Sequence([
        CallFunc("DPCL_callback", [Const(INIT_CALLBACK_TAG)]),
        SpinWait(SPIN_VARIABLE),
    ])


def bootstrap_anchor(kind: str) -> str:
    """The function whose exit carries the bootstrap for an app kind."""
    if kind == "mpi":
        return "MPI_Init"
    if kind == "omp":
        return "VT_init"
    raise ValueError(f"unknown application kind {kind!r}")
