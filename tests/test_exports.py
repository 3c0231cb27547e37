"""Every name the package exports is read on a run path or backs an
acceptance test.

A name counts as read when a package module, a benchmark script or the
acceptance suite loads it anywhere outside its own definition; unit
tests do not count, so an export only they call shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "impstab"

# exported, read by no run path, and kept: name -> reason
ALLOWED_UNREAD = {
    "integral_residual": "test_sim's simulator-fidelity oracle",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def reads(tree: ast.AST, name: str) -> bool:
    """Whether tree loads name, as a name or an attribute, outside a def
    or class of that name."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_export_has_a_reader():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    trees = [ast.parse(p.read_text()) for p in files]
    unread = sorted(n for n in exported_names() if not any(reads(t, n) for t in trees))
    extra = [n for n in unread if n not in ALLOWED_UNREAD]
    assert unread == sorted(ALLOWED_UNREAD), f"exports with no reader: {extra}"
