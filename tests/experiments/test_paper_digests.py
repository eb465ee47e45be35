"""Default-scale Fig. 8 text output is pinned byte-for-byte at seed 0.

``test_quick_golden.py`` pins ``fig8 --quick``, which stops at 32
ranks.  These pins cover the default scale, up to 512 ranks, where
VT_confsync's collective traffic dominates the host cost of
regenerating the paper's artifacts; host-side work on the MPI, cluster
and engine hot paths must leave them unchanged.  The combined ``fig8``
command prints fig8a, fig8b and fig8c in that order, so the
concatenation is checked against its digest too.

The three figures take tens of seconds, so these tests run only when
selected: ``python -m pytest -m paper_digest`` (the ``paper-digests``
CI job).  Re-record them only for an intentional semantic change to
the simulation, and say so in the commit.
"""

import contextlib
import hashlib
import io

import pytest

from repro.experiments.cli import main

pytestmark = [pytest.mark.slow, pytest.mark.paper_digest]

GOLDEN_SHA256 = {
    "fig8a": "ec736d67cf6a88151529164c25538d59ca62b03fe8c5da57fddaed6ed8898cc4",
    "fig8b": "61022516eff993a76eaf547f17b501ffbfd5aa0cba70ffbe6121f51437df15b2",
    "fig8c": "4778d6a159bb52ece0e42a50ba6d5d12f15efcef3d4b480ff3c5e326c8e32744",
}
#: ``fig8`` (all three panels) at the same seed and scale.
COMBINED_FIG8_SHA256 = "d8ca11b8200046d05d5bdbd3b885c6e64930748cb48fb6622406830bc8b86e72"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def outputs():
    """Each panel's seed-0 default-scale stdout, run once per module."""
    captured = {}
    for figure in sorted(GOLDEN_SHA256):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([figure, "--seed", "0", "--no-cache"]) == 0
        captured[figure] = out.getvalue()
    return captured


@pytest.mark.parametrize("figure", sorted(GOLDEN_SHA256))
def test_default_scale_figure_stdout_matches_pinned_digest(figure, outputs):
    digest = _sha256(outputs[figure])
    assert digest == GOLDEN_SHA256[figure], (
        f"{figure} output drifted: sha256 {digest} != {GOLDEN_SHA256[figure]}"
    )


def test_panels_concatenate_to_combined_fig8_digest(outputs):
    combined = "".join(outputs[figure] for figure in ("fig8a", "fig8b", "fig8c"))
    assert _sha256(combined) == COMBINED_FIG8_SHA256
