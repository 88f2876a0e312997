"""The demos stay in step with the package API without being run."""

import ast
import importlib
import inspect
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _accepts(func, keyword):
    """Whether func can be called with `keyword=...`."""
    return any(p.kind == p.VAR_KEYWORD
               or (p.name == keyword
                   and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
               for p in inspect.signature(func).parameters.values())


def test_demos_use_existing_api():
    """Every name a demo imports from `wavetank` exists, and every
    keyword it passes to one of those callables is a parameter of it."""
    assert DEMOS, "no demos found"
    problems = []
    for path in DEMOS:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "wavetank"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        imported[alias.asname or alias.name] = getattr(
                            module, alias.name)
                    else:
                        problems.append(
                            f"{path.name}: {node.module}.{alias.name} missing")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and callable(imported.get(node.func.id))):
                func = imported[node.func.id]
                problems += [
                    f"{path.name}:{node.lineno}: {node.func.id}() has no "
                    f"parameter {kw.arg!r}"
                    for kw in node.keywords
                    if kw.arg is not None and not _accepts(func, kw.arg)]
    assert not problems, problems
