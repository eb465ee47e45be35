"""Default-scale text output is pinned byte-for-byte at seed 0.

``test_quick_golden.py`` pins every leaf id's ``--quick`` stdout, which
stops Fig. 8 at 32 ranks and Fig. 7 at 16 CPUs.  These checks cover
the default scale: Fig. 8 up to 512 ranks, where VT_confsync's
collective traffic dominates the host cost of regenerating the paper's
artifacts, and every other leaf the artifact table pins (its records'
second digest).  Host-side work on the MPI, cluster and engine hot
paths must leave them unchanged.  Each composite id must print its
parts' stdout, in order.

The leaves take tens of seconds, so these tests run only when
selected: ``python -m pytest -m paper_digest`` (the
``paper-artifact-digests`` CI job).  Re-record a pin only for an
intentional semantic change to the simulation, and say so in the
commit.
"""

import contextlib
import hashlib
import io

import pytest

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.cli import main

pytestmark = [pytest.mark.slow, pytest.mark.paper_digest]

PINNED = sorted(name for name, artifact in ARTIFACTS.items()
                if artifact.digests)
COMPOSITES = [name for name, artifact in ARTIFACTS.items() if artifact.parts]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


def _leaves(name):
    parts = ARTIFACTS[name].parts
    return [leaf for part in parts for leaf in _leaves(part)] if parts else [name]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="module")
def outputs(cache):
    """Each pinned leaf's seed-0 default-scale stdout, run once per
    module; its points land in ``cache`` for the composites."""
    return {name: _stdout([name, "--seed", "0", "--cache-dir", cache])
            for name in PINNED}


@pytest.mark.parametrize("figure", PINNED)
def test_default_scale_figure_stdout_matches_pinned_digest(figure, outputs):
    digest = _sha256(outputs[figure])
    pinned = ARTIFACTS[figure].digests[1]
    assert digest == pinned, (
        f"{figure} output drifted: sha256 {digest} != {pinned}"
    )


@pytest.mark.parametrize("name", COMPOSITES)
def test_composite_stdout_is_its_parts_stdout(name, outputs, cache):
    expected = "".join(outputs[leaf] for leaf in _leaves(name))
    assert _stdout([name, "--seed", "0", "--cache-dir", cache]) == expected
