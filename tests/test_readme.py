"""The README's config-key table, check table, config examples and quick
start agree with the code."""

import re
from pathlib import Path

from viscophase import diagnostics
from viscophase.cli import SWEEP_BASE, config_to_text, parse_config
from viscophase.dynamics import KEYMAP, SimConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _key_rows():
    section = README.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


def test_key_table_names_each_key_once_with_its_default():
    rows = _key_rows()
    keys = [row[0].strip("`") for row in rows]
    assert sorted(keys) == sorted(KEYMAP)
    defaults = config_to_text(SimConfig())
    for key, (_, default, *_) in zip(keys, rows):
        assert default == (f"`{defaults[key]}`" if defaults[key]
                           else "(empty)"), key


def _check_rows():
    header = "| record | command | threshold |\n"
    table = README.split(header, 1)[1].split("\n\n", 1)[0]
    # an escaped \| inside a cell is not a cell border
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line[1:-1])]
            for line in table.splitlines() if line.startswith("| `")]


def test_check_table_thresholds_are_the_diagnostics_constants():
    rows = _check_rows()
    assert len(rows) == 11
    for record, _, threshold in rows:
        named = re.findall(r"`([A-Z_]+)` = (\S+)", threshold)
        if record.startswith("`balance-residual`"):
            assert named == [] and threshold.startswith("∞"), record
            continue
        assert len(named) == 1, record
        for name, value in named + re.findall(r"`([A-Z_]+)` = (\S+)",
                                              record):
            assert getattr(diagnostics, name) == float(value), name


def test_ini_blocks_parse():
    configs = [parse_config(text) for text in _blocks("ini")]
    # one of them states degenerate-sweep's base config
    assert SWEEP_BASE in configs


def test_quick_start_runs():
    namespace = {}
    for code in _blocks("python"):
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].monotone
