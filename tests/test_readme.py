"""The README's config-key table, config examples and quick start agree
with the code."""

import re
from pathlib import Path

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


def test_ini_blocks_parse():
    configs = [parse_config(text) for text in _blocks("ini")]
    # one of them states degenerate-sweep's base config
    assert SWEEP_BASE in configs


def test_quick_start_runs():
    namespace = {}
    for code in _blocks("python"):
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].monotone
