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


def private_numpy_uses(path: pathlib.Path) -> list[str]:
    """Imports of private numpy modules, and attribute paths into them: a
    dotted path below ``numpy`` with a segment that starts with ``_``, such
    as ``numpy.linalg._umath_linalg``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    paths, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                paths.append((node.lineno, alias.name))
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                paths.append((node.lineno, full))
                aliases[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs, base = [], node
            while isinstance(base, ast.Attribute):
                attrs.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                paths.append((node.lineno, ".".join([aliases[base.id]]
                                                    + attrs[::-1])))
    return sorted({f"{path.name}:{line} {dotted}" for line, dotted in paths
                   if dotted.split(".")[0] == "numpy"
                   and any(seg.startswith("_") and not seg.startswith("__")
                           for seg in dotted.split(".")[1:])})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_numpy(path):
    assert private_numpy_uses(path) == []


def test_private_numpy_uses_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\n"
                    "from numpy.linalg import _umath_linalg\n"
                    "import numpy._core.multiarray\n"
                    "from numpy import linalg as la\n"
                    "from numpy.lib.stride_tricks import sliding_window_view\n"
                    "x = np.linalg._umath_linalg.lstsq\n"
                    "y = la._linalg.lstsq\n"
                    "z = np.linalg.lstsq, np.__version__\n", encoding="utf-8")
    assert private_numpy_uses(path) == [
        "mod.py:2 numpy.linalg._umath_linalg",
        "mod.py:3 numpy._core.multiarray",
        "mod.py:6 numpy.linalg._umath_linalg",
        "mod.py:6 numpy.linalg._umath_linalg.lstsq",
        "mod.py:7 numpy.linalg._linalg",
        "mod.py:7 numpy.linalg._linalg.lstsq"]


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


def unread_class_assignments(paths) -> list[str]:
    """Names that a plain assignment in a class body of the modules at
    ``paths`` binds and that none of them reads: as an attribute of any
    object, or as a string constant (``getattr``).  String constants inside
    such class-body assignments do not count as reads, so a table of names
    that nothing reads does not keep the names it lists."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8")))
             for path in paths]
    bound, tables = {}, set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    tables.update(map(id, ast.walk(stmt.value)))
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            bound.setdefault(target.id,
                                             f"{path.name}:{stmt.lineno}")
    read = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and not isinstance(node.ctx, ast.Store)):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in tables):
                read.add(node.value)
    return [f"{where} {name}" for name, where in bound.items()
            if name not in read
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_class_assignment_is_read():
    assert unread_class_assignments(sorted(SRC.glob("*.py"))) == []


def test_unread_class_assignments_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class A:\n"
                    "    NAMES = ('x', 'y')\n"
                    "    x = property(lambda self: 1)\n"
                    "    y = 2\n"
                    "    z: int = 3\n"
                    "    KEYS = ('k',)\n"
                    "    k = 4\n"
                    "    __slots__ = ()\n"
                    "\n"
                    "\n"
                    "def f(a):\n"
                    "    a.y = 5\n"
                    "    return a.x, getattr(a, 'k'), A.KEYS\n",
                    encoding="utf-8")
    assert unread_class_assignments([path]) == ["mod.py:2 NAMES",
                                                "mod.py:4 y"]


def hand_written_checks(path: pathlib.Path) -> list[str]:
    """The marks of a scalar input check written outside the shared family
    in ``splines.py``: a use of the ``numbers`` module, an
    ``isinstance(..., bool)`` call and a comparison against ``inf``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def is_inf(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Attribute) and node.attr == "inf"

    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name == "numbers" for alias in node.names):
            found.append(f"{path.name}:{node.lineno} import numbers")
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append(f"{path.name}:{node.lineno} from numbers")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                found.append(f"{path.name}:{node.lineno} isinstance bool")
        elif isinstance(node, ast.Compare) and any(
                map(is_inf, [node.left, *node.comparators])):
            found.append(f"{path.name}:{node.lineno} compare inf")
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "splines.py"),
                         ids=lambda p: p.name)
def test_scalar_checks_are_shared(path):
    # every scalar input goes through check_integer, check_real or
    # check_positive; a hand-written checker here would drift from them
    assert hand_written_checks(path) == []


def test_hand_written_checks_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numbers\n"
                    "from numbers import Real\n"
                    "import numpy as np\n"
                    "a = isinstance(x, bool)\n"
                    "b = isinstance(x, (int, bool))\n"
                    "c = 0 < x < np.inf\n"
                    "d = -np.inf < x\n"
                    "e = isinstance(x, int) and x < 3 and np.isinf(x)\n",
                    encoding="utf-8")
    assert hand_written_checks(path) == [
        "mod.py:1 import numbers", "mod.py:2 from numbers",
        "mod.py:4 isinstance bool", "mod.py:5 isinstance bool",
        "mod.py:6 compare inf", "mod.py:7 compare inf"]
