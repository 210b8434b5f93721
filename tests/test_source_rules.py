"""Rules about the package source itself rather than its behaviour."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pacreason"


def test_package_checks_do_not_rely_on_assert():
    # `python -O` strips assert statements, so a check written as one vanishes
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        )
    assert offenders == []
