"""The demos stay in step with the package API without being run."""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_use_existing_api():
    assert DEMOS, "no demos found"
    problems = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "wavetank"):
                module = importlib.import_module(node.module)
                problems += [f"{path.name}: {node.module}.{alias.name} missing"
                             for alias in node.names
                             if not hasattr(module, alias.name)]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "SchemeParams"
                  and any(kw.arg == "b" for kw in node.keywords)):
                problems.append(f"{path.name}:{node.lineno}: SchemeParams(b=...)")
    assert not problems, problems
