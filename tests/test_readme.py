"""The README's sample output and root export list, held against the package."""

import csv
import re
from pathlib import Path

import pytest

import collapsar
from collapsar import CSV_HEADER
from collapsar.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# Compared by value, not by their last printed digit: numpy's dispatched
# exp and log2 can move that digit from host to host (ROADMAP item 11).
VALUE_COLUMNS = ("S_numeric", "gap")


def readme_examples():
    """(argv, stdout) for every README text block that shows a command's output."""
    examples = []
    for block in re.findall(r"```text\n(.*?)```", README, re.S):
        command, *output = block.splitlines()
        if output and not output[0].startswith("$ "):
            argv = command.removeprefix("$ collapsar ").split()
            examples.append((argv, "\n".join(output) + "\n"))
    return examples


def test_readme_examples_match_cli(capsys):
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["entropy", "crossover"]
    for argv, expected in examples:
        assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] == "crossover":
            assert out == expected
            continue
        got_rows = list(csv.reader(out.splitlines()))
        want_rows = list(csv.reader(expected.splitlines()))
        assert got_rows[0] == want_rows[0] == list(CSV_HEADER)
        assert len(got_rows) == len(want_rows)
        for got, want in zip(got_rows[1:], want_rows[1:]):
            for name, g, w in zip(CSV_HEADER, got, want, strict=True):
                if name in VALUE_COLUMNS:
                    assert float(g) == pytest.approx(float(w), rel=1e-12), name
                else:
                    assert g == w, name


def test_root_exports_match_readme():
    listed = re.search(
        r"exports exactly these names \(`collapsar.__all__`\):\n(.*?)\nEverything else",
        README,
        re.S,
    )
    assert listed is not None
    assert collapsar.__all__ == re.findall(r"`(\w+)`", listed.group(1))
    for name in collapsar.__all__:
        assert hasattr(collapsar, name), name
