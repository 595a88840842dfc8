"""Every top-level name in ``src/cfdistill`` has a caller in ``src/``.

Each module-level function, class and assignment must be referenced, as a
name, an attribute or an import, somewhere in the package outside its own
definition.  Package ``__init__.py`` files are neither scanned nor counted,
so a re-export does not keep a name alive, and names that only tests or the
benchmark use belong beside them, not in the package.
"""

import ast
from pathlib import Path

import cfdistill

PACKAGE = Path(cfdistill.__file__).resolve().parent


def _modules():
    return {
        path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }


def _defined(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _referenced(tree, skip):
    """Names this tree reads, imports or reaches as attributes, outside ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_every_top_level_name_has_a_caller_in_src():
    modules = _modules()
    assert "experiment.py" in modules and "nn/network.py" in modules
    callerless = []
    for where, tree in modules.items():
        for name, node in _defined(tree):
            if not any(name in _referenced(other, node) for other in modules.values()):
                callerless.append(f"{where}: {name}")
    assert callerless == []
