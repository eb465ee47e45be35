"""The artifact table: one record per ``repro-experiments`` id.

Everything an id means is in its :class:`Artifact` record, and the
CLI's id list and ``run_experiment``, the ``all`` composite, the
``--quick`` caps and the pinned stdout digests all read
:data:`ARTIFACTS`: adding an artifact is adding one record.  A record
names its functions by module, which loads only when one of its ids
runs, so importing the table loads no figure module or simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._record import FrozenRecord
from ..runner import SweepPoint, SweepRunner

__all__ = ["Artifact", "ARTIFACTS", "Plan", "run_plan", "upto"]

#: A grid (None for an experiment without one) and the reducer that
#: turns its points' payloads into outputs.
Plan = Tuple[Optional[List[SweepPoint]], Callable[[List[dict]], Any]]


def run_plan(plan: Plan, runner: Optional[SweepRunner]) -> Any:
    """Run a plan's grid on ``runner`` (in-process without one), then reduce."""
    points, reduce = plan
    return reduce([] if points is None
                  else (runner or SweepRunner()).run_grid(points))


def upto(counts: Sequence[int], cap: Optional[int]) -> List[int]:
    """The counts of ``counts`` at most ``cap`` (all of them for None)."""
    return [c for c in counts if cap is None or c <= cap]


def _late(module: str, name: str, *bound: Any) -> Callable[..., Any]:
    """``module.name`` with ``bound`` leading arguments, imported on first call."""

    def call(*args: Any, **kwargs: Any) -> Any:
        function = getattr(__import__(module, globals(), None, (), 1), name)
        return function(*bound, *args, **kwargs)

    return call


def _in_process(module: str, name: str,
                render: Optional[str] = None) -> Callable[..., Plan]:
    """The plan of a leaf without a grid: its reducer calls ``module.name``,
    and ``module.render`` on the result if given."""
    function = _late(module, name)
    show = _late(module, render) if render else (lambda out: out)
    return lambda **settings: (None, lambda _: show(function(**settings)))


class Artifact(FrozenRecord):
    """What one experiment id runs.

    A leaf's ``plan(**settings)`` is its :data:`Plan`: its grid and the
    reducer that turns the grid's payloads into the id's outputs (text
    blocks and figures).  ``options`` names the settings the leaf
    takes, of ``n_cpus`` (``cpus[quick]``: its CPU bound in a full and
    in a ``--quick`` run, None for none), ``seed``, ``scale``,
    ``faults`` and ``interval`` (``--obs-sample``'s).  ``digests`` are
    the sha256 of its seed-0 stdout with ``--quick`` and at the default
    scale.  A composite holds only its ``parts``.
    """

    _fields = ("name", "plan", "cpus", "options", "digests", "parts")

    def __init__(self, name: str, plan: Optional[Callable[..., Plan]] = None,
                 cpus: Tuple[Optional[int], Optional[int]] = (None, None),
                 options: Tuple[str, ...] = (),
                 digests: Optional[Tuple[str, str]] = None,
                 parts: Tuple[str, ...] = ()) -> None:
        self.__dict__.update(name=name, plan=plan, cpus=cpus, options=options,
                             digests=digests, parts=parts)

    def run(self, runner: Optional[SweepRunner], scale: float, seed: int,
            quick: bool, faults: Any = None,
            interval: Optional[float] = None) -> List[Any]:
        """The id's outputs, its parts' in order for a composite; grids
        run on ``runner``, or in-process without one."""
        if self.parts:
            return [out for part in self.parts for out in ARTIFACTS[part].run(
                runner, scale, seed, quick, faults, interval)]
        offered = {"n_cpus": self.cpus[quick], "seed": seed, "scale": scale,
                   "faults": faults, "interval": interval}
        out = run_plan(self.plan(**{k: offered[k] for k in self.options}),
                       runner)
        return out if isinstance(out, list) else [out]


def _table(name: str, digest: str) -> Artifact:
    return Artifact(name, _in_process("tables", "render_" + name),
                    digests=(digest, digest))


def _fig7(name: str, quick: str, default: str) -> Artifact:
    return Artifact(name, _late("fig7", "panel_plan", name), (None, 16),
                    ("n_cpus", "seed", "scale", "faults"), (quick, default))


def _fig8(name: str, quick_cpus: int, quick: str, default: str) -> Artifact:
    return Artifact(name, _late("fig8", "panel_plan", name),
                    (None, quick_cpus), ("n_cpus", "seed"), (quick, default))


#: Every id, in the CLI's order.  fig8 takes neither ``--scale`` nor
#: ``--faults``; fig9 fixes its own scale.
ARTIFACTS: Dict[str, Artifact] = {a.name: a for a in (
    _table("table1", "58979c9707a0f2a2585548a2f1aa2a8e1babe6c999efbe766d389e70837c9b79"),
    _table("table2", "8616466c383f5545d35326ed69a9e4e49bc927abd859375504ec3db48ad6a7ca"),
    _table("table3", "0e22e3b50af33ada11e4a962ff746286dbae876784bec1e264508acbc1ccfde6"),
    _fig7("fig7a", "c44cf4e13dc4146e90035f42c528d09d52a612e309b61c19d704405315c09a13",
          "e14c2fb6993b443f9358dae62cd21c1ea802465b7599dd98d1b0e8821a5d5fb7"),
    _fig7("fig7b", "0de2251d49bcd5378c7bff805fd1773cc7a7ad0b07bd0858340cbc11a842cee4",
          "0c92a5782c9cc2f471d5ab355e5ac76b818cf4f27c3e785e1784d1363e2b5715"),
    _fig7("fig7c", "bf4e890ebcdc240c6d5f8d93dd45db49bef09d7d398d949e665cfdb040db38f4",
          "fc9d8269316d747737a7662198dc45218f8e5a180cf2c8da42cbb55175916842"),
    _fig7("fig7d", "489e8c9a00afeff6887a6748b4c7787329368a214f3a8614c02b589cdc27ff91",
          "489e8c9a00afeff6887a6748b4c7787329368a214f3a8614c02b589cdc27ff91"),
    Artifact("fig7", parts=("fig7a", "fig7b", "fig7c", "fig7d")),
    _fig8("fig8a", 32, "b3ce7fe7b7e1514af3586e32c9d56df32928a02104890fc44e73bede94141e8f",
          "ec736d67cf6a88151529164c25538d59ca62b03fe8c5da57fddaed6ed8898cc4"),
    _fig8("fig8b", 32, "6452e0c9cc7ff99cb32d4d855f9ee8b111042ffea3b011c1e1f911191da4d5d8",
          "61022516eff993a76eaf547f17b501ffbfd5aa0cba70ffbe6121f51437df15b2"),
    _fig8("fig8c", 8, "2857b7113ba14c74de77554095f578ddfecdfce28e8c08c94a5d5b6f8121dcb3",
          "4778d6a159bb52ece0e42a50ba6d5d12f15efcef3d4b480ff3c5e326c8e32744"),
    Artifact("fig8", parts=("fig8a", "fig8b", "fig8c")),
    Artifact("fig9", _late("fig9", "artifact_plan"), (None, 8),
             ("n_cpus", "seed", "faults"),
             ("6cc4ff861b9d1d85ce1cc0295a902d78a03d953558f6ca85f97e78473436d9e2",
              "95c82b91467de256c515c0ff5e78cfc73720fd107501b276e442d46ac9e3eee7")),
    Artifact("tracevol", _late("tracevol", "artifact_plan"), (16, 4),
             ("n_cpus", "seed", "scale", "faults"),
             ("8eb2d9288b913948b74307cbed1d373bd5fb0583b6514abf64e1aca5ad127e92",
              "709789c6d879113e5df018e48231fed2716191802826f724a97cb27caf82ffc9")),
    # In-process, outside the cache and the pool: the compactor needs
    # the postmortem TraceFile, and the timeline each point's own
    # sampled metrics, which a cached point lacks and the runner's
    # collectors merge across points.
    Artifact("tracevol-compress", _in_process(
        "tracevol", "run_tracevol_compression", "render_compression"),
             (4, 2), ("n_cpus", "seed", "scale"),
             ("d7189af44441a06b595f144e30facb22ed4b1b6574e48cd922387c1243a20a39",
              "89b81db4341d02398e44623986779c9d5ed938fc1be0569b1fbee5b980f1cb99")),
    Artifact("overhead-timeline", _in_process("overhead", "run_overhead_timeline"),
             (8, 4), ("n_cpus", "seed", "scale", "interval"),
             ("f32111a03b022927f3b3426fea1deda4c454965479edcc7ece9667d20bbff9d4",
              "4fe5ccf3bdf2e938397683d32d3ee06628e1ec60ac4569062d95a6f36a1de562")),
    Artifact("all", parts=("table1", "table2", "table3", "fig7", "fig8",
                           "fig9", "tracevol")),
)}
