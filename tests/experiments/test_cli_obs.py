"""CLI surface of the time-series telemetry: --obs-sample, '-' output
targets, consistent unwritable-path errors, the chaos --obs document,
and the `obs report` subcommand."""

import json

import pytest

from repro.experiments.cli import main
from repro.obs.timeseries import decode_series

SWEEP = ["sweep", "--apps", "sweep3d", "--policies", "Full",
         "--cpus", "2", "--scale", "0.02", "--seed", "3",
         "--no-cache", "--json"]


def _sweep_obs_doc(tmp_path, capsys, *extra):
    path = tmp_path / "obs.json"
    assert main(SWEEP + ["--obs", str(path)] + list(extra)) == 0
    capsys.readouterr()
    return path, json.loads(path.read_text())


# ------------------------------------------------------------- --obs-sample


def test_obs_sample_adds_timeseries_to_the_document(tmp_path, capsys):
    _, plain = _sweep_obs_doc(tmp_path, capsys)
    assert "timeseries" not in plain

    _, sampled = _sweep_obs_doc(tmp_path, capsys, "--obs-sample", "0.5")
    assert len(sampled["timeseries"]) == 1
    (ts,) = sampled["timeseries"].values()
    assert ts["interval"] == 0.5 and ts["samples"] > 0
    # Sampled counter deltas telescope to the merged snapshot.
    _, deltas = decode_series(ts["series"]["counter:vt.records"])
    assert sum(deltas) == sampled["obs"]["counters"]["vt.records"]


def test_obs_sample_leaves_sweep_output_byte_identical(tmp_path, capsys):
    # Same --obs path both times (the JSON document names it in its
    # outputs map); the only variable is the sampler.
    path = str(tmp_path / "o.json")
    assert main(SWEEP + ["--obs", path]) == 0
    baseline = capsys.readouterr().out
    assert main(SWEEP + ["--obs", path, "--obs-sample", "0.5"]) == 0
    assert capsys.readouterr().out == baseline


def test_obs_sample_rejects_nonpositive_values(tmp_path):
    with pytest.raises(SystemExit):
        main(SWEEP + ["--obs", str(tmp_path / "o.json"),
                      "--obs-sample", "0"])
    with pytest.raises(SystemExit):
        main(["chaos", "--app", "sweep3d", "--cpus", "4",
              "--obs", str(tmp_path / "o.json"), "--obs-sample", "-1"])


# ------------------------------------------- '-' targets and error messages


def test_obs_dash_streams_document_to_stdout(capsys):
    assert main(SWEEP[:-1] + ["--obs", "-"]) == 0  # drop --json: text mode
    out, err = capsys.readouterr()
    # stdout interleaves the sweep table and the obs document; the
    # document is the first decodable JSON object.
    doc, _ = json.JSONDecoder().raw_decode(out, out.index("{"))
    assert "obs" in doc and "telemetry" in doc
    assert "wrote obs metrics" not in err


def test_unwritable_obs_path_fails_with_consistent_message(tmp_path, capsys):
    # A missing parent directory is created, so block it with a file.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    path = blocker / "obs.json"
    with pytest.raises(SystemExit) as exc:
        main(SWEEP + ["--obs", str(path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"repro-experiments: cannot write obs document {path}:" in err


def test_obs_path_in_a_missing_directory_is_created(tmp_path):
    out = tmp_path / "o1"
    assert main(["fig9", "--quick", "--no-cache", "--jobs", "1",
                 "--obs", str(out / "obs.json"), "--trace", str(out)]) == 0
    assert "obs" in json.loads((out / "obs.json").read_text())
    assert list(out.glob("*.trace.json"))


def test_unwritable_trace_dir_fails_with_consistent_message(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    with pytest.raises(SystemExit) as exc:
        main(SWEEP + ["--trace", str(blocker / "sub")])
    assert exc.value.code == 1
    assert "repro-experiments: cannot write trace document" in \
        capsys.readouterr().err


def test_trace_dash_streams_json_lines(capsys):
    assert main(SWEEP + ["--trace", "-"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("{\"label\""))
    doc = json.loads(line)
    assert "trace" in doc and doc["label"]


# ------------------------------------------------------------------- chaos


def test_chaos_obs_document_carries_point_and_series(tmp_path, capsys):
    path = tmp_path / "chaos-obs.json"
    assert main(["chaos", "--app", "sweep3d", "--cpus", "4",
                 "--scale", "0.01", "--obs", str(path),
                 "--obs-sample", "0.5"]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["point"]["app"] == "sweep3d"
    assert doc["obs"]["counters"]
    (label, ts), = doc["timeseries"].items()
    assert ts["samples"] > 0


# -------------------------------------------------------------- obs report


@pytest.fixture()
def obs_doc(tmp_path, capsys):
    return _sweep_obs_doc(tmp_path, capsys, "--obs-sample", "0.5")


def test_obs_report_text(obs_doc, capsys):
    path, _ = obs_doc
    assert main(["obs", "report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "simulator metrics (repro.obs)" in out
    assert "sampled time series" in out
    assert "instrumentation overhead" in out


def test_obs_report_csv(obs_doc, capsys):
    path, _ = obs_doc
    assert main(["obs", "report", str(path), "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "label,series,kind,t,value"
    assert ",counter:vt.records,delta," in out


def test_obs_report_prom(obs_doc, capsys):
    path, doc = obs_doc
    assert main(["obs", "report", str(path), "--prom"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_vt_records_total counter" in out
    assert f"repro_vt_records_total " \
        f"{doc['obs']['counters']['vt.records']}" in out


def test_obs_report_json_decodes_series(obs_doc, capsys):
    path, raw = obs_doc
    assert main(["obs", "report", str(path), "--json"]) == 0
    decoded = json.loads(capsys.readouterr().out)
    (ts,) = decoded["timeseries"].values()
    series = ts["series"]["counter:vt.records"]
    assert isinstance(series["t"], list) and isinstance(series["v"], list)
    assert sum(series["v"]) == raw["obs"]["counters"]["vt.records"]


def test_obs_report_reads_stdin_dash(obs_doc, capsys, monkeypatch):
    import io

    path, _ = obs_doc
    monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
    assert main(["obs", "report", "-"]) == 0
    assert "simulator metrics" in capsys.readouterr().out


def test_obs_report_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit):
        main(["obs", "report", str(bad)])
    assert "not valid JSON" in capsys.readouterr().err

    nodoc = tmp_path / "nodoc.json"
    nodoc.write_text("{\"hello\": 1}")
    with pytest.raises(SystemExit):
        main(["obs", "report", str(nodoc)])
    assert "no 'obs' snapshot" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main(["obs", "report", str(tmp_path / "missing.json")])
    assert "cannot read obs document" in capsys.readouterr().err


def _first_series(doc):
    (ts,) = doc["timeseries"].values()
    return ts, ts["series"][sorted(ts["series"])[0]]


def _bad_blob(doc):
    _first_series(doc)[1]["t"] = "!!"


def _no_count(doc):
    del _first_series(doc)[1]["n"]


def _series_list(doc):
    ts, _ = _first_series(doc)
    ts["series"] = list(ts["series"])


def _text_counter(doc):
    doc["obs"]["counters"]["vt.records"] = "x"


@pytest.mark.parametrize("mode", [[], ["--json"], ["--csv"], ["--prom"]],
                         ids=["text", "json", "csv", "prom"])
@pytest.mark.parametrize("damage", [_bad_blob, _no_count, _series_list,
                                    _text_counter],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_obs_report_rejects_a_malformed_document_in_one_line(
        obs_doc, capsys, damage, mode):
    path, doc = obs_doc
    damage(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["obs", "report", str(path), *mode])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro-experiments: obs document {path} is malformed: ")
