"""The package namespace: every exported name resolves and has a caller."""

import ast
import re
from pathlib import Path

import defgpa
from defgpa import gpa, spectral


def test_star_import_binds_every_export():
    namespace = {}
    exec("from defgpa import *", namespace)
    assert sorted(set(defgpa.__all__) - set(namespace)) == []


def test_every_export_resolves():
    assert [name for name in defgpa.__all__ if not hasattr(defgpa, name)] == []
    assert len(set(defgpa.__all__)) == len(defgpa.__all__)


def test_covariance_prior_resolves_from_both_modules():
    assert defgpa.CovariancePrior is gpa.CovariancePrior is spectral.CovariancePrior


def test_every_export_has_a_caller():
    # a public name must be used by the package, a demo or the acceptance tests, or be
    # documented in the README; definitions and imports do not count as uses
    root = Path(__file__).resolve().parent.parent
    sources = [p for p in (root / "src" / "defgpa").glob("*.py") if p.name != "__init__.py"]
    sources += [*(root / "demos").glob("*.py"), root / "tests" / "test_acceptance.py"]
    used = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(defgpa.__all__) - used) == []


def test_every_private_definition_has_a_caller():
    # a module-level private function, class or constant of the package must be read somewhere in
    # the package; its definition and imports of it do not count
    defined, used = {}, set()
    for path in (Path(__file__).resolve().parent.parent / "src" / "defgpa").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            defined.update((name, path.name) for name in names if re.fullmatch(r"_[^_]\w*", name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in used) == []


def test_no_handler_swallows_every_exception():
    # a handler names the failures it expects: no bare `except:`, `except Exception` or
    # `except BaseException`, alone or in a tuple
    broad = []
    for path in (Path(__file__).resolve().parent.parent / "src" / "defgpa").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(kind is None or getattr(kind, "id", None) in ("Exception", "BaseException")
                       for kind in caught):
                    broad.append(f"{path.name}:{node.lineno}")
    assert broad == []
