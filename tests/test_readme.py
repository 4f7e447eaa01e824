"""The README's Python quick start runs and prints what its comments say, and
its CLI config block runs."""

import contextlib
import io
import pathlib
import re

import pytest

from edgeplasmon.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def quick_start():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), namespace)
    return namespace


def test_root_and_census(quick_start):
    sol = quick_start["sol"]
    # the comment's value, to its three decimals
    assert (round(sol.q.real, 3), round(sol.q.imag, 3)) == (21.657, 0.217)
    assert sol.census.counts() == (1, 1, 1, 1)


def test_divergence_coefficient_vanishes_at_the_root(quick_start):
    ns = quick_start
    assert abs(ns["edge_limits"](ns["prob"], ns["kern"]).divergence_coefficient) < 1e-9


def test_index_off_the_root(quick_start):
    off = quick_start["off"]
    assert quick_start["winding_index"](off) == -1
    assert quick_start["bulk_zeros"](off).counts() == (0, 2, 1, 1)


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path_factory.mktemp("readme") / "cfg.json"
    path.write_text(block, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["solve", "index", "sweep", "field"])
def test_cli_config_runs(cli_config, command, capsys):
    # every command the README's config block has a section for succeeds
    assert main([command, "--config", cli_config]) == 0
    assert capsys.readouterr().out.count("\n") >= 2    # a header and a row
