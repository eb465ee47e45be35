"""What a fully cached regeneration does, counted rather than timed.

A warm run reads each entry once, finds no machine constants in it (the
key hashes them; the entry names the machine), hashes each point once
and probes the terminal once for the one parser it builds.
"""

import json
import shutil

import pytest

import repro.runner.cache as cache_mod
from repro.cluster import MACHINES, POWER3_SP
from repro.experiments.cli import main
from repro.runner import ResultCache, SweepPoint, SweepRunner, point_key

from ..test_cli_surface import COMMANDS, _parser_of

ARGV = ["fig8", "--quick", "--jobs", "1"]


@pytest.fixture
def warm_cache(tmp_path, capsys):
    """The argv of a fully cached run, and the stdout of the cold one."""
    argv = [*ARGV, "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    return argv, capsys.readouterr().out


def test_cached_rerun_reads_each_entry_once(warm_cache, tmp_path, capsys,
                                            monkeypatch):
    argv, cold = warm_cache
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "open", counting_open, raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    entries = sorted(str(p) for p in ResultCache(tmp_path)._iter_paths())
    assert sorted(opened) == entries


def test_cached_rerun_hashes_each_point_once(warm_cache, tmp_path,
                                            monkeypatch):
    # Only to find a grid's distinct points: results are kept by index.
    hashed = []
    real = SweepPoint.__hash__

    def counting(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(SweepPoint, "__hash__", counting)
    assert main(warm_cache[0]) == 0
    monkeypatch.undo()
    assert len(hashed) == len(set(hashed)) == len(ResultCache(tmp_path))


def test_entries_hold_no_machine_constants(warm_cache, tmp_path):
    paths = list(ResultCache(tmp_path)._iter_paths())
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert '"net_latency"' not in text
        point = json.loads(text)["point"]
        assert point["machine"] in MACHINES and "variant_tag" not in point


def test_an_ablated_machine_is_named_with_its_variant_tag(tmp_path):
    ablated = POWER3_SP.with_overrides(net_latency=1e-5)
    point = SweepPoint("selftest", 1, machine=ablated,
                       params=(("mode", "echo"), ("value", 1)))
    cache = ResultCache(tmp_path)
    SweepRunner(cache=cache).run_grid([point])
    entry = cache.get(point_key(point))
    assert entry["point"]["machine"] == "power3-sp"
    assert entry["point"]["variant_tag"] == ablated.variant_tag != ""
    assert "net_latency" not in json.dumps(entry)


def test_an_entry_with_the_whole_machine_block_still_hits(tmp_path):
    # Entries written before the point lost its machine block.
    point = SweepPoint.confsync(4)
    key = point_key(point)
    cache = ResultCache(tmp_path)
    cache.put_entry(key, {"key": key, "version": "1.1.0",
                          "point": point.canonical(),
                          "payload": {"time": 2.5},
                          "meta": {"wall_time": 0.1}})
    result = SweepRunner(cache=cache).run([point])[point]
    assert result.cached and result.payload == {"time": 2.5}
    assert cache.hits == 1 and cache.misses == 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_parser_build_probes_the_terminal_at_most_once(command,
                                                            monkeypatch):
    probes = []
    real = shutil.get_terminal_size

    def counting(*args, **kwargs):
        probes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    parser = _parser_of(command, monkeypatch)
    parser.format_help()
    parser.format_usage()
    assert len(probes) <= 1
