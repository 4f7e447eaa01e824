"""Every Python file of the repository parses as Python 3.10, the oldest
version ``pyproject.toml`` declares.  ``ast.parse`` with a
``feature_version`` refuses the newer grammar (``except*``, and so on)
without a 3.10 interpreter; it checks syntax only."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


def test_sources_found():
    assert any(path.name == "field.py" for path in SOURCES)
    assert any(path.parent.name == "perfbench" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_grammar_is_refused():
    code = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(code)
    with pytest.raises(SyntaxError):
        ast.parse(code, feature_version=OLDEST)
