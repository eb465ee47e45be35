"""Quick-figure text output is pinned byte-for-byte at seed 0.

Host-side performance work (glob memoization, engine fast paths) must
never move a simulated number.  Every leaf id of the artifact table
pins the sha256 of its ``--quick`` seed-0 stdout in its record, and
each composite (``fig7``, ``fig8``, ``all``) must print exactly its
parts' stdout, in order.

``GOLDEN_SHA256`` copies the seed-0 stdout pins of the repository
benchmark (``perfbench/golden.json``) for Fig. 9 (DPCL attach and
probe insertion), Fig. 7c (probe firing on Sweep3d) and Fig. 8
(VT_confsync); those three also run on the process pool.

If one fails after an intentional semantic change to the simulation,
re-record the record's pin (and ``perfbench/golden.json``) and say so
in the commit; after a pure performance change, fix the code, not the
digest.
"""

import contextlib
import hashlib
import io

import pytest

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.cli import main

GOLDEN_SHA256 = {
    "fig9": "6cc4ff861b9d1d85ce1cc0295a902d78a03d953558f6ca85f97e78473436d9e2",
    "fig7c": "bf4e890ebcdc240c6d5f8d93dd45db49bef09d7d398d949e665cfdb040db38f4",
    "fig8": "18bb908b1ca773f66e9398df529e3fed2c6558f25a42f532854e893a161eddd4",
}

LEAVES = [name for name, artifact in ARTIFACTS.items() if not artifact.parts]
COMPOSITES = [name for name, artifact in ARTIFACTS.items() if artifact.parts]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def leaves_of(name):
    """The leaf ids a (composite) id prints, in order."""
    parts = ARTIFACTS[name].parts
    return [leaf for part in parts for leaf in leaves_of(part)] if parts else [name]


@pytest.mark.parametrize("figure", sorted(GOLDEN_SHA256))
def test_quick_figure_stdout_matches_pinned_digest(figure, capsys):
    # The default fans the points over a process pool; --jobs 1 runs
    # them in-process. Both must print the pinned bytes.
    for jobs in ([], ["--jobs", "1"]):
        assert main([figure, "--quick", "--seed", "0", "--no-cache", *jobs]) == 0
        digest = _sha256(capsys.readouterr().out)
        assert digest == GOLDEN_SHA256[figure], (
            f"{figure} --quick {' '.join(jobs)} output drifted: "
            f"sha256 {digest} != {GOLDEN_SHA256[figure]}"
        )


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="module")
def quick_outputs(cache):
    """Each leaf's ``--quick`` seed-0 stdout, computed in-process once;
    the points land in ``cache`` for the composites."""
    outputs = {}
    for name in LEAVES:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([name, "--quick", "--seed", "0", "--jobs", "1",
                         "--cache-dir", cache]) == 0
        outputs[name] = out.getvalue()
    return outputs


@pytest.mark.parametrize("name", LEAVES)
def test_quick_leaf_stdout_matches_its_record(name, quick_outputs):
    assert _sha256(quick_outputs[name]) == ARTIFACTS[name].digests[0], (
        f"{name} --quick output drifted")


@pytest.mark.parametrize("name", COMPOSITES)
def test_composite_stdout_is_its_parts_stdout(name, quick_outputs, cache,
                                              capsys):
    capsys.readouterr()
    assert main([name, "--quick", "--seed", "0", "--jobs", "1",
                 "--cache-dir", cache]) == 0
    expected = "".join(quick_outputs[leaf] for leaf in leaves_of(name))
    assert capsys.readouterr().out == expected

