"""The option surface of both command lines, pinned.

For every command of ``repro-experiments`` and for ``repro-dynprof``,
:data:`SURFACE` lists each argument's flags, ``dest``, default, type
name, ``choices``, ``nargs`` and action, in declaration order.  A
change to how the parsers are built must leave it as it is: no option
added, removed or renamed, none with another default, type or choices.
Help texts and metavars are not pinned.

Each command's parser is captured where it starts parsing, so the test
reads the parsers the entry points really build.  ``<command> --help``
must exit 0 for every command and load no simulator or figure module.
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

import repro.dynprof.cli as dynprof_cli
import repro.experiments.cli as cli

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")

#: (entry point, the words that select the command).
COMMANDS = {
    "figures": ("repro-experiments", ()),
    "sweep": ("repro-experiments", ("sweep",)),
    "trace": ("repro-experiments", ("trace",)),
    "trace compact": ("repro-experiments", ("trace", "compact")),
    "chaos": ("repro-experiments", ("chaos",)),
    "replay verify": ("repro-experiments", ("replay", "verify")),
    "replay bisect": ("repro-experiments", ("replay", "bisect")),
    "obs report": ("repro-experiments", ("obs", "report")),
    "repro-dynprof": ("repro-dynprof", ()),
}

ENTRY_POINTS = {"repro-experiments": cli.main,
                "repro-dynprof": dynprof_cli.main}

_APPS = ["smg98", "sppm", "sweep3d", "umt98"]
_MACHINES = ["ia32-linux", "power3-sp"]
_PLANS = ["daemon-crash-attach", "flaky-network", "straggler"]
_EXPERIMENTS = ["table1", "table2", "table3", "fig7a", "fig7b", "fig7c",
                "fig7d", "fig7", "fig8a", "fig8b", "fig8c", "fig8", "fig9",
                "tracevol", "tracevol-compress", "overhead-timeline", "all"]

_RUNNER = [
    (["--jobs"], "jobs", None, "int", None, None, "_StoreAction"),
    (["--cache-dir"], "cache_dir", None, "None", None, None, "_StoreAction"),
    (["--no-cache"], "no_cache", False, "None", None, 0, "_StoreTrueAction"),
    (["--timeout"], "timeout", None, "positive_float", None, None,
     "_StoreAction"),
    (["--progress"], "progress", False, "None", None, 0, "_StoreTrueAction"),
]
_COLLECTORS = [
    (["--obs"], "obs", None, "None", None, None, "_StoreAction"),
    (["--obs-sample"], "obs_sample", None, "positive_float", None, None,
     "_StoreAction"),
    (["--trace"], "trace", None, "None", None, None, "_StoreAction"),
    (["--trace-detail"], "trace_detail", "fine", "None", ["fine", "coarse"],
     None, "_StoreAction"),
    (["--trace-capacity"], "trace_capacity", 65536, "positive_int", None,
     None, "_StoreAction"),
    (["--trace-compact"], "trace_compact", False, "None", None, 0,
     "_StoreTrueAction"),
    (["--record"], "record", None, "None", None, None, "_StoreAction"),
    (["--replay"], "replay", None, "None", None, None, "_StoreAction"),
]
_FAULTS = [
    (["--faults"], "faults", None, "None", None, None, "_StoreAction"),
    (["--plan"], "plan", None, "None", _PLANS, None, "_StoreAction"),
]
_HELP = (["-h", "--help"], "help", "==SUPPRESS==", "None", None, 0,
         "_HelpAction")
_JSON = (["--json"], "json", False, "None", None, 0, "_StoreTrueAction")


def _point(app, cpus, scale, kind=None):
    rows = [] if kind is None else [
        (["--kind"], "kind", kind, "None", ["instrument", "policy"], None,
         "_StoreAction")]
    return rows + [
        (["--app"], "app", app, "None", None, None, "_StoreAction"),
        (["--policy"], "policy", "Dynamic", "None", None, None,
         "_StoreAction"),
        (["--cpus"], "cpus", cpus, "positive_int", None, None,
         "_StoreAction"),
        (["--scale"], "scale", scale, "positive_float", None, None,
         "_StoreAction"),
        (["--seed"], "seed", 0, "int", None, None, "_StoreAction"),
        (["--machine"], "machine", "power3-sp", "None", _MACHINES, None,
         "_StoreAction"),
    ]


#: Each command's arguments, pinned from the parsers as they stood
#: before the option table: (flags, dest, default, type name, choices,
#: nargs, action class).
SURFACE = {
    "figures": [
        _HELP,
        ([], "experiments", None, "None", _EXPERIMENTS, "+", "_StoreAction"),
        (["--scale"], "scale", 0.1, "positive_float", None, None,
         "_StoreAction"),
        (["--seed"], "seed", 0, "int", None, None, "_StoreAction"),
        (["--quick"], "quick", False, "None", None, 0, "_StoreTrueAction"),
        (["--csv"], "csv", None, "None", None, None, "_StoreAction"),
        _JSON,
    ] + _RUNNER + _COLLECTORS + _FAULTS,
    "sweep": [
        _HELP,
        (["--apps"], "apps", _APPS, "_str_list", None, None, "_StoreAction"),
        (["--policies"], "policies",
         ["Full", "Full-Off", "Subset", "None", "Dynamic"], "_str_list", None,
         None, "_StoreAction"),
        (["--cpus"], "cpus", None, "_cpu_list", None, None, "_StoreAction"),
        (["--scale"], "scale", 0.1, "positive_float", None, None,
         "_StoreAction"),
        (["--seed"], "seed", 0, "int", None, None, "_StoreAction"),
        (["--machine"], "machine", "power3-sp", "None", _MACHINES, None,
         "_StoreAction"),
        _JSON,
    ] + _RUNNER + _COLLECTORS,
    "trace": [_HELP] + _point("smg98", 4, 0.1) + [
        (["--detail"], "detail", "fine", "None", ["fine", "coarse"], None,
         "_StoreAction"),
        (["--capacity"], "capacity", 65536, "positive_int", None, None,
         "_StoreAction"),
        (["--compact"], "compact", False, "None", None, 0,
         "_StoreTrueAction"),
        (["--out"], "out", None, "None", None, None, "_StoreAction"),
        (["--chrome"], "chrome", None, "None", None, None, "_StoreAction"),
        (["--svg"], "svg", None, "None", None, None, "_StoreAction"),
        (["--vgv"], "vgv", None, "None", None, None, "_StoreAction"),
        (["--vgvz"], "vgvz", None, "None", None, None, "_StoreAction"),
    ],
    "trace compact": [
        _HELP,
        ([], "action", None, "None", ["compress", "decompress", "stats"],
         None, "_StoreAction"),
        ([], "paths", None, "None", None, "+", "_StoreAction"),
        (["--out-dir"], "out_dir", None, "None", None, None, "_StoreAction"),
        (["--no-suppress"], "no_suppress", False, "None", None, 0,
         "_StoreTrueAction"),
        _JSON,
    ],
    "chaos": [_HELP] + _point("sweep3d", 32, 0.02, kind="instrument") + [
        (["--check-determinism"], "check_determinism", False, "None", None,
         0, "_StoreTrueAction"),
        _JSON,
        (["--obs"], "obs", None, "None", None, None, "_StoreAction"),
        (["--obs-sample"], "obs_sample", None, "positive_float", None, None,
         "_StoreAction"),
        (["--record"], "record", None, "None", None, None, "_StoreAction"),
        (["--replay"], "replay", None, "None", None, None, "_StoreAction"),
    ] + _FAULTS,
    "replay verify": [
        _HELP,
        ([], "log", None, "None", None, None, "_StoreAction"),
        (["--timeout"], "timeout", None, "positive_float", None, None,
         "_StoreAction"),
        _JSON,
    ],
    "replay bisect": [_HELP] + _point("sweep3d", 32, 0.02,
                                      kind="instrument") + [
        (["--mode"], "mode", "effect", "None", ["effect", "fail", "diverge"],
         None, "_StoreAction"),
        (["--against"], "against", None, "None", None, None, "_StoreAction"),
        (["--timeout"], "timeout", None, "positive_float", None, None,
         "_StoreAction"),
        _JSON,
    ] + _FAULTS,
    "obs report": [
        _HELP,
        ([], "file", None, "None", None, None, "_StoreAction"),
        (["--csv"], "csv", False, "None", None, 0, "_StoreTrueAction"),
        (["--prom"], "prom", False, "None", None, 0, "_StoreTrueAction"),
        (["--json"], "json", False, "None", None, 0, "_StoreTrueAction"),
    ],
    "repro-dynprof": [
        _HELP,
        ([], "stdin", None, "None", None, None, "_StoreAction"),
        ([], "stdout", None, "None", None, None, "_StoreAction"),
        ([], "timefile", None, "None", None, None, "_StoreAction"),
        ([], "target", None, "None", _APPS, None, "_StoreAction"),
        (["--cpus"], "cpus", 4, "positive_int", None, None, "_StoreAction"),
        (["--scale"], "scale", 0.1, "positive_float", None, None,
         "_StoreAction"),
        (["--input"], "input", None, "None", None, None, "_StoreAction"),
        (["--machine"], "machine", "power3-sp", "None", _MACHINES, None,
         "_StoreAction"),
        (["--seed"], "seed", 0, "int", None, None, "_StoreAction"),
    ],
}


class _Captured(Exception):
    pass


def _parser_of(command, monkeypatch):
    """The parser the entry point builds for ``command``."""
    entry, words = COMMANDS[command]

    def capture(self, args=None, namespace=None):
        raise _Captured(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", capture)
    with pytest.raises(_Captured) as caught:
        ENTRY_POINTS[entry]([*words, "--help"])
    parser = caught.value.args[0]
    # A parser with subcommands: descend to the named one.
    for word in words:
        sub = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
        if sub and word in sub[0].choices:
            parser = sub[0].choices[word]
    return parser


def _surface(parser):
    return [
        (list(a.option_strings), a.dest, a.default,
         getattr(a.type, "__name__", str(a.type)),
         None if a.choices is None else list(a.choices),
         a.nargs, type(a).__name__)
        for a in parser._actions
    ]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_option_surface_is_pinned(command, monkeypatch):
    assert _surface(_parser_of(command, monkeypatch)) == SURFACE[command]


def test_settable_values_do_not_grow():
    assert sum(len(rows) - 1 for rows in SURFACE.values()) == 104


_FORBIDDEN = ("numpy", "repro.simt", "repro.mpi", "repro.openmp",
              "repro.vt", "repro.program", "repro.dpcl", "repro.dynprof.tool",
              "repro.jobs", "repro.experiments.fig7",
              "repro.experiments.fig8", "repro.experiments.fig9",
              "repro.experiments.tracevol", "repro.experiments.tables",
              "repro.experiments.overhead")


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"repro-dynprof"}))
def test_help_exits_zero_and_loads_no_simulator(command):
    words = list(COMMANDS[command][1])
    code = ("import contextlib, io, json, sys\n"
            "from repro.experiments.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    try:\n"
            f"        main({[*words, '--help']!r})\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
            "    else:\n"
            "        raise AssertionError('--help returned')\n"
            "assert out.getvalue().startswith('usage: '), out.getvalue()\n"
            f"print(json.dumps([m for m in {_FORBIDDEN!r} "
            "if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("columns", [None, "60"], ids=["terminal", "cols-60"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_text_is_argparse_default_formatting(command, columns,
                                                  monkeypatch):
    # The parsers resolve the terminal width once per build; the text
    # must be what a plain argparse.HelpFormatter, which probes the
    # terminal for every formatter it builds, gives.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    text = _parser_of(command, monkeypatch).format_help()
    for module in (cli, dynprof_cli):
        monkeypatch.setattr(module, "help_formatter",
                            lambda: argparse.HelpFormatter)
    assert text == _parser_of(command, monkeypatch).format_help()
