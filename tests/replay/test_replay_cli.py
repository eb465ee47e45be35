"""CLI surfaces: chaos/sweep --record/--replay and `replay verify|bisect`."""

import json
import os
import zlib

import pytest

from repro.compact.varint import encode_uvarint, zigzag
from repro.experiments.cli import main
from repro.replay.orderlog import CH_EVENT, OrderLog

from .test_orderlog import V1_LOG

ARGS = ["--cpus", "16", "--scale", "0.02"]


def record_chaos(tmp_path, seed=0):
    path = str(tmp_path / "run.order")
    rc = main(["chaos", *ARGS, "--seed", str(seed), "--record", path])
    assert rc == 0
    assert os.path.exists(path)
    return path


# -- chaos --record / --replay ------------------------------------------------


def test_chaos_record_then_replay_roundtrip(tmp_path, capsys):
    path = record_chaos(tmp_path)
    assert "wrote order log" in capsys.readouterr().err
    rc = main(["chaos", *ARGS, "--replay", path])
    assert rc == 0
    assert "replay: OK (bit-identical to" in capsys.readouterr().out


def test_chaos_record_replay_mutually_exclusive(tmp_path):
    path = str(tmp_path / "run.order")
    with pytest.raises(SystemExit) as err:
        main(["chaos", *ARGS, "--record", path, "--replay", path])
    assert err.value.code == 2


def test_chaos_replay_perturbed_run_diverges(tmp_path, capsys):
    path = record_chaos(tmp_path, seed=0)
    capsys.readouterr()
    rc = main(["chaos", *ARGS, "--seed", "3", "--replay", path])
    assert rc == 1
    captured = capsys.readouterr()
    assert "DIVERGED" in captured.err
    assert "decision #" in captured.err


def test_chaos_recording_leaves_payload_identical(tmp_path, capsys):
    rc = main(["chaos", *ARGS, "--json"])
    assert rc == 0
    plain = json.loads(capsys.readouterr().out)
    rc = main(["chaos", *ARGS, "--json", "--record",
               str(tmp_path / "run.order")])
    assert rc == 0
    recorded = json.loads(capsys.readouterr().out)
    assert recorded == plain


# -- replay verify ------------------------------------------------------------


def test_replay_verify_ok(tmp_path, capsys):
    path = record_chaos(tmp_path)
    capsys.readouterr()
    rc = main(["replay", "verify", path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OK (" in out and "bit-identical" in out


def test_replay_verify_json(tmp_path, capsys):
    path = record_chaos(tmp_path)
    capsys.readouterr()
    rc = main(["replay", "verify", "--json", path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["status"] == "ok"
    assert doc["decisions"] == len(OrderLog.load(path))


def test_replay_verify_reports_divergence(tmp_path, capsys):
    path = record_chaos(tmp_path, seed=0)
    # Re-point the log at a different seed: the re-run must depart from
    # the recorded decisions and verify must say exactly where.
    log = OrderLog.load(path)
    log.meta["point"]["seed"] = 3
    log.save(path)
    capsys.readouterr()
    rc = main(["replay", "verify", path])
    assert rc == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "first divergence: decision #" in out


def test_replay_verify_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.order"
    bad.write_bytes(b"not an order log")
    assert main(["replay", "verify", str(bad)]) == 1
    assert "bad magic" in capsys.readouterr().err
    assert main(["replay", "verify", str(tmp_path / "missing.order")]) == 1


def test_replay_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "bogus"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# -- replay bisect ------------------------------------------------------------


def three_spec_plan_file(tmp_path):
    path = tmp_path / "plan3.json"
    path.write_text(json.dumps({"faults": [
        {"kind": "daemon_crash", "node": 1},
        {"kind": "message_loss", "probability": 0.0},
        {"kind": "rank_slowdown", "rank": 0, "factor": 2.0,
         "start": 1000000.0, "end": 1000001.0},
    ]}))
    return str(path)


def test_replay_bisect_cli_minimizes(tmp_path, capsys):
    plan = three_spec_plan_file(tmp_path)
    rc = main(["replay", "bisect", "--faults", plan,
               "--cpus", "16", "--scale", "0.05", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "effect"
    assert doc["original_size"] == 3
    assert doc["minimal_size"] == 1
    assert doc["minimal"]["faults"] == [{"kind": "daemon_crash", "node": 1}]
    assert doc["tests"] == 4
    assert doc["history"][0] == {"specs": [0, 1, 2], "interesting": True}


def test_replay_bisect_text_output(tmp_path, capsys):
    plan = three_spec_plan_file(tmp_path)
    rc = main(["replay", "bisect", "--faults", plan,
               "--cpus", "16", "--scale", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 spec(s) -> 1 (1-minimal) in 4 deterministic test run(s)" in out
    assert "daemon_crash" in out


def test_replay_bisect_requires_a_plan():
    with pytest.raises(SystemExit) as err:
        main(["replay", "bisect", "--cpus", "16", "--scale", "0.05"])
    assert err.value.code == 2


def test_replay_bisect_diverge_needs_against(tmp_path):
    plan = three_spec_plan_file(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["replay", "bisect", "--faults", plan, "--mode", "diverge"])
    assert err.value.code == 2
    # --against outside diverge mode is likewise refused.
    with pytest.raises(SystemExit) as err:
        main(["replay", "bisect", "--faults", plan,
              "--against", str(tmp_path / "x.order")])
    assert err.value.code == 2


# -- sweep --record / --replay ------------------------------------------------


SWEEP = ["--apps", "sweep3d", "--policies", "Dynamic", "--cpus", "4",
         "--scale", "0.05", "--no-cache", "--json"]


def test_sweep_record_then_replay(tmp_path, capsys):
    logs = str(tmp_path / "logs")
    rc = main(["sweep", *SWEEP, "--record", logs])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    paths = doc["outputs"]["order_logs"]
    assert len(paths) == 1 and paths[0].endswith(".order")
    assert os.path.exists(paths[0])
    rc = main(["sweep", *SWEEP, "--replay", logs])
    assert rc == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["sweep"][0]["status"] == "ok"


def test_sweep_recording_leaves_results_identical(tmp_path, capsys):
    rc = main(["sweep", *SWEEP])
    assert rc == 0
    plain = json.loads(capsys.readouterr().out)
    rc = main(["sweep", *SWEEP, "--record", str(tmp_path / "logs")])
    assert rc == 0
    recorded = json.loads(capsys.readouterr().out)
    # Identical modulo the extra outputs section listing the log files.
    assert recorded["sweep"] == plain["sweep"]


def test_sweep_replay_perturbed_seed_diverges(tmp_path, capsys):
    logs = str(tmp_path / "logs")
    assert main(["sweep", *SWEEP, "--record", logs]) == 0
    capsys.readouterr()
    # Same labels, different seed: every verified point must diverge.
    rc = main(["sweep", *SWEEP, "--seed", "3", "--replay", logs])
    assert rc == 1
    captured = capsys.readouterr()
    assert "diverged from its replay log at decision #" in captured.err
    doc = json.loads(captured.out)
    assert doc["sweep"][0]["status"] == "diverged"


def test_sweep_record_replay_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", *SWEEP, "--record", str(tmp_path / "a"),
              "--replay", str(tmp_path / "b")])


def test_load_replay_logs_rejects_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit, match="no .order files"):
        main(["sweep", *SWEEP, "--replay", str(empty)])


def test_load_replay_logs_rejects_corrupt_file(tmp_path):
    bad = tmp_path / "bad.order"
    bad.write_bytes(b"RRLG but not really")
    with pytest.raises(SystemExit, match="order.log"):
        main(["sweep", *SWEEP, "--replay", str(bad)])


def test_corrupt_timestamp_is_a_one_line_error(tmp_path, capsys):
    log = OrderLog(meta={"label": "bad"})
    log.append(CH_EVENT, "P:rank0", 0, 0.0)
    body = log.to_bytes()[:-4]
    # The one timestamp (0.0, a single zero byte) sits just before the
    # 4-byte seal; step its bit pattern past int64 and reseal, so the
    # timestamp guard and not the seal refuses the log.
    assert body[-1] == 0
    stamp = bytearray()
    encode_uvarint(zigzag(2**64), stamp)
    body = body[:-1] + bytes(stamp)
    bad = tmp_path / "bad.order"
    bad.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))

    assert main(["replay", "verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro-experiments replay: ")
    assert "corrupt timestamp" in err and "Traceback" not in err
    with pytest.raises(SystemExit, match="corrupt timestamp"):
        main(["sweep", *SWEEP, "--replay", str(bad)])
    assert main(["chaos", *ARGS, "--replay", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro-experiments chaos: --replay ")
    assert "corrupt timestamp" in err and "Traceback" not in err


def _flipped_log():
    log = OrderLog(meta={"label": "bad"})
    for i in range(8):
        log.append(CH_EVENT, f"P:rank{i}", 0, 0.5 * i)
    data = bytearray(log.to_bytes())
    data[len(data) // 2] ^= 0x10
    return bytes(data)


BAD_LOGS = {
    "v1": lambda: V1_LOG,
    "meta-list": lambda: OrderLog(meta=[1]).to_bytes(),
    "bit-flip": _flipped_log,
}


@pytest.mark.parametrize("kind", sorted(BAD_LOGS))
def test_bad_log_is_a_one_line_error_on_every_surface(tmp_path, capsys, kind):
    bad = tmp_path / "bad.order"
    bad.write_bytes(BAD_LOGS[kind]())
    assert main(["replay", "verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # never a DIVERGED verdict
    assert captured.err.startswith("repro-experiments replay: ")
    assert captured.err.count("\n") == 1
    with pytest.raises(SystemExit, match="--replay .*bad.order: ") as exc:
        main(["sweep", *SWEEP, "--replay", str(bad)])
    assert "\n" not in str(exc.value)
    assert main(["chaos", *ARGS, "--replay", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro-experiments chaos: --replay ")
    assert err.count("\n") == 1


def test_fig8_record_replay_round_trip_covers_both_machines(tmp_path, capsys):
    """fig8a (power3-sp) and fig8c (ia32-linux) share CPU counts; their
    points must not share labels, or logs overwrite each other and the
    replay checks one machine's run against the other's log."""
    logs = str(tmp_path / "logs")
    assert main(["fig8", "--quick", "--no-cache", "--record", logs]) == 0
    recorded = capsys.readouterr().out
    assert len([f for f in os.listdir(logs) if f.endswith(".order")]) == 22
    assert main(["fig8", "--quick", "--no-cache", "--replay", logs]) == 0
    assert capsys.readouterr().out == recorded


def test_replay_never_reads_the_cache(tmp_path, capsys):
    """A warm cache must not turn a divergent replay into a pass."""
    logs = str(tmp_path / "logs")
    cache = ["--cache-dir", str(tmp_path / "cache")]
    plain = [a for a in SWEEP if a != "--no-cache"]
    assert main(["sweep", *SWEEP, "--seed", "3", "--record", logs]) == 0
    assert main(["sweep", *plain, *cache]) == 0  # warm the cache at seed 0
    capsys.readouterr()
    assert main(["sweep", *plain, *cache, "--replay", logs]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["sweep"][0]["status"] == "diverged"
    assert doc["sweep"][0]["cached"] is False


def test_replay_that_matches_no_point_fails(tmp_path, capsys):
    logs = str(tmp_path / "logs")
    assert main(["sweep", *SWEEP, "--record", logs]) == 0
    capsys.readouterr()
    other = [*SWEEP[:SWEEP.index("--cpus") + 1], "2",
             *SWEEP[SWEEP.index("--cpus") + 2:]]
    assert main(["sweep", *other, "--replay", logs]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["sweep"][0]["status"] == "ok"
    assert "1 loaded log(s)" in captured.err
    assert "nothing was verified" in captured.err


def test_chaos_replay_of_another_points_log_fails(tmp_path, capsys):
    path = record_chaos(tmp_path)
    capsys.readouterr()
    assert main(["chaos", "--cpus", "8", "--scale", "0.02",
                 "--replay", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro-experiments chaos: --replay ")
    assert "1 loaded log(s)" in err
