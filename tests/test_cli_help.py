"""Pin the CLI ``--help`` output and its style conventions.

Every subcommand's help text is snapshotted into
``tests/snapshots/cli_help.txt`` at a fixed 80-column width, so any
accidental drift in flags, metavars or descriptions shows up as a
diff.  Regenerate deliberately with::

    REPRO_UPDATE_SNAPSHOTS=1 PYTHONPATH=src python -m pytest \
        tests/test_cli_help.py

On top of the literal snapshot, style invariants keep the subcommands
consistent: every value-taking option needs an explicit UPPERCASE
metavar (or a ``choices`` list), and every option needs a help string
that starts in lowercase.
"""

import argparse
import os

import pytest

from repro.cli import build_parser

SNAPSHOT = os.path.join(
    os.path.dirname(__file__), "snapshots", "cli_help.txt"
)


def iter_parsers():
    """Yield (label, parser) for the root parser and every subparser."""
    os.environ["COLUMNS"] = "80"  # pin argparse help wrapping
    root = build_parser()
    queue = [("repro", root)]
    while queue:
        label, parser = queue.pop(0)
        yield label, parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    queue.append((f"{label} {name}", child))


def render_all_help() -> str:
    chunks = []
    for label, parser in iter_parsers():
        chunks.append(f"$ {label} --help\n{parser.format_help()}")
    return "\n".join(chunks)


def test_help_snapshot():
    rendered = render_all_help()
    if os.environ.get("REPRO_UPDATE_SNAPSHOTS"):
        os.makedirs(os.path.dirname(SNAPSHOT), exist_ok=True)
        with open(SNAPSHOT, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert rendered == expected, (
        "CLI --help drifted from tests/snapshots/cli_help.txt; if the "
        "change is deliberate, regenerate with REPRO_UPDATE_SNAPSHOTS=1"
    )


def value_taking_options(parser):
    for action in parser._actions:
        if action.option_strings and action.nargs != 0 and not isinstance(
            action, (argparse._HelpAction, argparse._SubParsersAction)
        ):
            yield action


def test_every_value_option_has_uppercase_metavar():
    for label, parser in iter_parsers():
        for action in value_taking_options(parser):
            if action.choices is not None:
                continue  # argparse renders the choices list itself
            assert action.metavar, (
                f"{label}: {action.option_strings[0]} needs a metavar"
            )
            assert action.metavar == action.metavar.upper(), (
                f"{label}: {action.option_strings[0]} metavar "
                f"{action.metavar!r} must be uppercase"
            )


def test_every_option_help_is_lowercase_prose():
    for label, parser in iter_parsers():
        for action in parser._actions:
            if not action.option_strings:
                continue
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.help, (
                f"{label}: {action.option_strings[0]} needs a help string"
            )
            first = action.help.lstrip()[0]
            assert not first.isupper() or action.help.split()[0].isupper(), (
                f"{label}: {action.option_strings[0]} help should start "
                f"lowercase (or with an acronym): {action.help!r}"
            )


@pytest.mark.parametrize("flag", ["--jobs", "--cache-dir"])
def test_shared_flags_use_one_metavar_everywhere(flag):
    """The same flag never shows different metavars across subcommands."""
    metavars = set()
    for _, parser in iter_parsers():
        for action in value_taking_options(parser):
            if flag in action.option_strings and action.metavar:
                metavars.add(action.metavar)
    assert len(metavars) <= 1, f"{flag} uses mixed metavars: {metavars}"
