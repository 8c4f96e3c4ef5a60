"""Source-level rules for the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dbseeds"


def test_library_has_no_assert():
    # `python -O` strips assert statements, so an invariant must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py"))
    assert found == []
