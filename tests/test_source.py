"""Static checks on the package source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gebvisc"


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


#: definitions that only callers outside the package use: public entry
#: points, and the system as a sparse matrix for inspection
PUBLIC = {"run_scenario", "set_initial_velocity", "assemble"}


def unreferenced_definitions() -> list[str]:
    """Functions, classes and methods of the package that no module of it
    refers to by name, attribute or string constant (the load history
    kinds are dispatched by name)."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [f"{where} {name}" for name, where in defined.items()
            if name not in used and name not in PUBLIC
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_used():
    assert unreferenced_definitions() == []


def history_evaluators() -> set[str]:
    """Names of the load history evaluators: their shared signature
    ``f(value, t, **params)`` is the interface ``LoadHistory`` calls."""
    from gebvisc.model import HISTORY_KINDS
    return {fn.__name__ for fn, _ in HISTORY_KINDS.values()}


def unread_parameters() -> list[str]:
    """Parameters of the package's functions and methods that their body
    never reads, save ``self`` and ``cls`` and the shared ``value`` and
    ``t`` of the load history evaluators."""
    evaluators = history_evaluators()
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part)
                    if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            exempt = {"self", "cls"} | ({"value", "t"} if name in evaluators
                                        else set())
            out += [f"{path.name}:{node.lineno} {name}({p})" for p in params
                    if p not in read and p not in exempt]
    return out


def test_every_parameter_is_read():
    assert unread_parameters() == []


def unread_attributes() -> list[str]:
    """Attributes that the package's methods store on ``self`` and that no
    module of it reads by name: as an attribute of any object, or as a
    string constant (``getattr``)."""
    stored, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                if (isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
                else:
                    read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{where} self.{name}" for name, where in stored.items()
            if name not in read]


def test_every_attribute_is_read():
    assert unread_attributes() == []
