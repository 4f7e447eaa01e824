"""The names the benchmark's traced run wraps exist in the package.

``perfbench/tracing.py`` rebinds package names from outside the package,
so a renamed or removed function breaks every ``--trace 1`` run.  This
loads that module by path, unchanged, and resolves each of its entries.
"""

import importlib
import importlib.util
import pathlib

import pytest

from edgeplasmon import ConductivityTensor, Problem, build_log_kernel
from edgeplasmon.wiener_hopf import CauchyTable

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(f"edgeplasmon.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_and_counted_name_resolves(tracing):
    entries = [(name, mod, attr) for name, mod, attr, _ in tracing.TRACED]
    entries += list(tracing.COUNTED)
    assert entries
    for name, mod, attr in entries:
        assert callable(_resolve(mod, attr)), name


def test_table_has_the_counted_attributes(tracing):
    kernel = build_log_kernel(Problem.single_sheet(
        ConductivityTensor.diagonal(0.2j, 0.2j, nondimensional=True), 12.0 + 0.1j))
    table = CauchyTable.build(kernel)
    assert table.nodes.size > 0 and table.tail_z.size == 0
    assert tracing._table_nodes(table) == table.nodes.size
