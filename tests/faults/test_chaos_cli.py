"""The ``chaos`` subcommand and the ``--faults`` figure plumbing."""

import hashlib
import json

import pytest

from repro.experiments.cli import main

ARGS = ["--cpus", "16", "--scale", "0.02"]

#: sha256 of the seed-0 ``chaos --json`` stdout for each canned plan and
#: point kind.  Nothing else pins the degraded dynprof path byte for
#: byte: a new digest means a faulted session now behaves differently.
CHAOS_DIGESTS = {
    ("daemon-crash-attach", "instrument"):
        "8b0afa589473116a90a696d816a1703f12615f1fb042c6346ef894808515f688",
    ("daemon-crash-attach", "policy"):
        "77665bf318e925d9ee1595536dc8e62fecb69b127377400cf8cc58acaa2b6c80",
    ("flaky-network", "instrument"):
        "ca51bfef1ca10549a31792b939ac164944deae5ca4ed3849a8451812fe6f7a53",
    ("flaky-network", "policy"):
        "7c4bcc7fe397759bdf8158edb30a2008d2fa6599c6be11fdd70d050c1f0fe20a",
    ("straggler", "instrument"):
        "d5a72ea0fe7aefc78d92cf76323cf9822047b272f382138b9a08767f9bf684b2",
    ("straggler", "policy"):
        "fce05387e1d565648877951f2fc0967a10aac194074c51ad5b6f9bb938e9aa6a",
}

#: Point options per kind: the instrument cell runs at the CLI defaults.
KIND_ARGS = {"instrument": [], "policy": ["--cpus", "16", "--scale", "0.05"]}


def test_chaos_defaults_to_canned_crash_plan(capsys):
    assert main(["chaos", *ARGS]) == 0
    out = capsys.readouterr().out
    assert "daemon-crash-attach" in out
    assert "quarantined ranks: [8, 9, 10, 11, 12, 13, 14, 15]" in out
    assert "coverage: 50%" in out
    assert "injected:" in out


def test_chaos_check_determinism(capsys):
    assert main(["chaos", *ARGS, "--check-determinism"]) == 0
    out = capsys.readouterr().out
    assert "determinism: OK" in out


def test_chaos_json_document(capsys):
    assert main(["chaos", *ARGS, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"point", "plan", "payload"}
    report = doc["payload"]["faults"]
    assert report["quarantined_ranks"] == list(range(8, 16))
    assert doc["plan"]["faults"]  # the canned plan rode along verbatim


def test_chaos_named_plan_and_policy_kind(capsys):
    rc = main(["chaos", *ARGS, "--kind", "policy", "--plan", "flaky-network",
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["point"]["kind"] == "policy"


def test_chaos_rejects_faults_plus_plan(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text('{"faults": []}')
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--faults", str(path), "--plan", "flaky-network"])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_chaos_rejects_bad_plan_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"faults": [{"kind": "nope"}]}')
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--faults", str(path)])
    assert exc.value.code == 2
    assert "--faults" in capsys.readouterr().err


def test_main_dispatches_chaos(capsys):
    assert main(["chaos"] + ARGS) == 0
    assert "quarantined ranks" in capsys.readouterr().out


def test_empty_fault_plan_is_bit_identical_on_figures(tmp_path, capsys):
    """The acceptance bar: an empty plan must not perturb a single byte
    of figure output (no RNG draws, no cache-key change)."""
    path = tmp_path / "empty.json"
    path.write_text('{"faults": []}')
    assert main(["fig9", "--quick", "--no-cache", "--json"]) == 0
    baseline = capsys.readouterr().out
    assert main(["fig9", "--quick", "--no-cache", "--json",
                 "--faults", str(path)]) == 0
    assert capsys.readouterr().out == baseline


@pytest.mark.parametrize("plan,kind", sorted(CHAOS_DIGESTS))
def test_chaos_json_digest_is_pinned(plan, kind, capsys):
    argv = ["--json", "--plan", plan, "--kind", kind] + KIND_ARGS[kind]
    assert main(["chaos", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHAOS_DIGESTS[plan, kind]
