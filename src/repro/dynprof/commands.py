"""The dynprof command language (Table 1).

=============  ========  =====================================================
Command        Shortcut  Description
=============  ========  =====================================================
help           h         Displays a help message
insert ...     i         Inserts instrumentation into one or more functions
remove ...     r         Removes instrumentation from one or more functions
insert-file .. if        Inserts instrumentation into all functions listed in
                         the provided file or files
remove-file .. rf        Removes instrumentation from all functions listed in
                         the provided file or files
start          s         Starts execution of the target application
quit           q         Detaches the instrumenter from the application
wait           w         Causes the tool to wait before executing the next
                         command
=============  ========  =====================================================

Commands can be scripted: "a user can prepare a text file that includes
commands, and direct this file into dynprof" (Section 3.3) — which is
how the paper's batch-queue experiments were run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .._record import FrozenRecord

__all__ = ["Command", "CommandError", "parse_command", "parse_script", "HELP_TEXT"]

HELP_TEXT = """\
dynprof commands:
  help (h)                 Displays a help message
  insert (i) FN...         Inserts instrumentation into one or more functions
  remove (r) FN...         Removes instrumentation from one or more functions
  insert-file (if) FILE... Inserts instrumentation into all of the functions
                           listed in the provided file or files
  remove-file (rf) FILE... Removes instrumentation from all of the functions
                           listed in the provided file or files
  start (s)                Starts execution of the target application
  quit (q)                 Detaches the instrumenter from the application
  wait (w) [SECONDS]       Causes the tool to wait before executing the next
                           command (default 1 second)
"""


class CommandError(ValueError):
    """Malformed dynprof command."""


class Command(FrozenRecord):
    """One parsed dynprof command: its canonical (long-form) verb, its
    arguments and, for the wait command, the duration in seconds."""

    _fields = ("verb", "args", "seconds")

    def __init__(self, verb: str, args: tuple = (), seconds: float = 1.0) -> None:
        self.__dict__.update(verb=verb, args=args, seconds=seconds)

    def __str__(self) -> str:
        parts = [self.verb, *self.args]
        if self.verb == "wait":
            parts.append(str(self.seconds))
        return " ".join(str(p) for p in parts)


_ALIASES: Dict[str, str] = {
    "help": "help", "h": "help",
    "insert": "insert", "i": "insert",
    "remove": "remove", "r": "remove",
    "insert-file": "insert-file", "if": "insert-file",
    "remove-file": "remove-file", "rf": "remove-file",
    "start": "start", "s": "start",
    "quit": "quit", "q": "quit",
    "wait": "wait", "w": "wait",
}

_NEEDS_ARGS = {"insert", "remove", "insert-file", "remove-file"}
_NO_ARGS = {"help", "start", "quit"}


def parse_command(line: str) -> Optional[Command]:
    """Parse one command line; returns None for blanks/comments."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    parts = text.split()
    verb = _ALIASES.get(parts[0].lower())
    if verb is None:
        raise CommandError(f"unknown command {parts[0]!r} (try 'help')")
    args = tuple(parts[1:])
    if verb in _NEEDS_ARGS and not args:
        raise CommandError(f"{verb} needs at least one argument")
    if verb in _NO_ARGS and args:
        raise CommandError(f"{verb} takes no arguments")
    if verb == "wait":
        if len(args) > 1:
            raise CommandError("wait takes at most one duration argument")
        seconds = 1.0
        if args:
            try:
                seconds = float(args[0])
            except ValueError:
                raise CommandError(f"bad wait duration {args[0]!r}") from None
            if seconds < 0:
                raise CommandError("wait duration must be non-negative")
        return Command("wait", (), seconds=seconds)
    return Command(verb, args)


def parse_script(text: str) -> List[Command]:
    """Parse a command script (one command per line)."""
    commands = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            cmd = parse_command(line)
        except CommandError as e:
            raise CommandError(f"line {line_no}: {e}") from None
        if cmd is not None:
            commands.append(cmd)
    return commands
