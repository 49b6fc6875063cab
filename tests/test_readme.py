"""The README's table of subcommands and flags against the parser it documents.

Each flag a row names exists on that subcommand, and each subcommand's
``--config`` and config overrides appear in its row. The ``pipeline`` row
names its overrides as "all <n> overrides above": those are the overrides
the rows above it name, and there must be ``n`` of them.
"""

import argparse
import itertools
import re
from pathlib import Path

import pytest

from lgequant import cli

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| subcommand | flags besides its input files and `--out` |"
NUMBERS = {"two": 2, "three": 3, "four": 4, "five": 5, "six": 6, "seven": 7, "eight": 8,
           "nine": 9, "ten": 10}
OVERRIDES = {flag for flag, _ in cli._OVERRIDES.values()}


def readme_rows() -> dict:
    """Subcommand -> the flags cell of its row, in the table's order."""
    lines = README.read_text().splitlines()
    body = lines[lines.index(HEADER) + 2:]          # past the header and its rule
    rows = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), body):
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = flags
    return rows


def parser_flags() -> dict:
    """Subcommand -> every option string it accepts."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {flag for action in p._actions for flag in action.option_strings}
            for name, p in sub.choices.items()}


def named_flags(cell: str) -> set:
    return set(re.findall(r"`(--[a-z0-9-]+)`", cell))


ROWS = readme_rows()
FLAGS = parser_flags()


def test_the_table_lists_every_subcommand():
    assert list(ROWS) == list(FLAGS)


@pytest.mark.parametrize("command", list(ROWS))
def test_each_flag_a_row_names_exists(command):
    assert named_flags(ROWS[command]) <= FLAGS[command]


@pytest.mark.parametrize("command", list(ROWS))
def test_config_and_overrides_are_in_the_row(command):
    named = named_flags(ROWS[command])
    everything = re.search(r"all (\w+) overrides above", ROWS[command])
    if everything:
        above = set().union(*map(named_flags, itertools.takewhile(
            lambda row: row != ROWS[command], ROWS.values()))) & OVERRIDES
        assert NUMBERS[everything.group(1)] == len(above)
        named |= above
    assert FLAGS[command] & (OVERRIDES | {"--config"}) <= named
