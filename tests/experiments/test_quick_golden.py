"""Quick-figure text output is pinned byte-for-byte at seed 0.

Host-side performance work (glob memoization, engine fast paths) must
never move a simulated number.  These digests are the seed-0 stdout
pins of the repository benchmark (``perfbench/golden.json``), copied
here so the tier-1 suite holds the same promise for Fig. 9 (DPCL
attach and probe insertion), Fig. 7c (probe firing on Sweep3d) and
Fig. 8 (VT_confsync).

If one fails after an intentional semantic change to the simulation,
re-record these pins and ``perfbench/golden.json`` together and say so
in the commit; after a pure performance change, fix the code, not the
digest.
"""

import hashlib

import pytest

from repro.experiments.cli import main

GOLDEN_SHA256 = {
    "fig9": "6cc4ff861b9d1d85ce1cc0295a902d78a03d953558f6ca85f97e78473436d9e2",
    "fig7c": "bf4e890ebcdc240c6d5f8d93dd45db49bef09d7d398d949e665cfdb040db38f4",
    "fig8": "18bb908b1ca773f66e9398df529e3fed2c6558f25a42f532854e893a161eddd4",
}


@pytest.mark.parametrize("figure", sorted(GOLDEN_SHA256))
def test_quick_figure_stdout_matches_pinned_digest(figure, capsys):
    # The default fans the points over a process pool; --jobs 1 runs
    # them in-process. Both must print the pinned bytes.
    for jobs in ([], ["--jobs", "1"]):
        assert main([figure, "--quick", "--seed", "0", "--no-cache", *jobs]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SHA256[figure], (
            f"{figure} --quick {' '.join(jobs)} output drifted: "
            f"sha256 {digest} != {GOLDEN_SHA256[figure]}"
        )
