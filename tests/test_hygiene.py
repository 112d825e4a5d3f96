"""Source hygiene: every imported name is used in the module importing it,
every threshold of the package is a name in tol.py that some module
imports, only qmatrix.py calls numpy's eigen- and singular value
kernels, the package decides over arrays with np.count_nonzero, not
numpy's any and all, no package module imports another's private
names, the zero-product rule runs where a record keeps its result, no
record is a generated dataclass, and the tuple records derive from
quat.Record."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hqmoduli").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])
# where small literals are not thresholds: the thresholds themselves, the
# samplers' draw constants and the draw checks of random_isometry
LITERAL_MODULES = {"tol.py", "sampling.py"}
LITERAL_FUNCTIONS = {"hform.py": {"random_isometry"}}
# private names one package module may import from another: the hot-path
# quaternion constructor that qmatrix builds its entries with
SHARED_PRIVATE = {("quat", "_new")}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (other than a __future__ one) that no
    expression or annotation of the module reads, quoted ones included."""
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {sub.id for sub in ast.walk(ast.parse(node.value))
                         if isinstance(sub, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused
             for p in MODULES
             if (unused := unused_imports(ast.parse(p.read_text())))}
    assert not found, f"imported but never used: {found}"


def test_unused_import_scan_catches_a_dead_name():
    tree = ast.parse("from __future__ import annotations\nimport math\n"
                     "from os import path, sep\nfrom q import Q, R\n"
                     "def f(x: 'list[Q]') -> int:\n    return sep\n")
    assert unused_imports(tree) == ["R (line 4)", "math (line 2)",
                                    "path (line 3)"]


def small_float_literals(tree: ast.Module, skip=()) -> list[str]:
    """Float literals x with 0 < |x| < 1e-2, the size of a threshold,
    outside the functions named in `skip`."""
    skipped = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name in skip
               for node in ast.walk(fn)}
    return [f"{node.value!r} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-2 and id(node) not in skipped]


def test_every_threshold_is_named_in_tol():
    found = {p.name: small
             for p in (ROOT / "src" / "hqmoduli").glob("*.py")
             if p.name not in LITERAL_MODULES
             and (small := small_float_literals(
                 ast.parse(p.read_text()), LITERAL_FUNCTIONS.get(p.name, ())))}
    assert not found, f"unnamed thresholds: {found}"


def test_threshold_scan_catches_a_planted_literal():
    tree = ast.parse("X = 1.0\ndef f(tol=1e-9):\n    return 2e-3 + 0.0\n"
                     "def random_isometry():\n    return -1e-6\n"
                     "Y = -0.5e-2 + 1e-2 + 3\n")
    assert small_float_literals(tree, {"random_isometry"}) == [
        "1e-09 (line 2)", "0.002 (line 3)", "0.005 (line 6)"]
    assert small_float_literals(tree) == [
        "1e-09 (line 2)", "0.002 (line 3)", "1e-06 (line 5)",
        "0.005 (line 6)"]


def spectral_calls(tree: ast.Module) -> list[str]:
    """Uses of linalg.eig* and linalg.svd: the decompositions that
    QMatrix owns, with its square and Hermitian checks."""
    return [f"linalg.{node.attr} (line {node.lineno})"
            for node in sorted(ast.walk(tree), key=lambda x: getattr(x, "lineno", 0))
            if isinstance(node, ast.Attribute)
            and (node.attr.startswith("eig") or node.attr == "svd")
            and getattr(node.value, "attr", getattr(node.value, "id", None))
            == "linalg"]


def test_decompositions_live_in_qmatrix():
    found = {p.name: calls
             for p in (ROOT / "src" / "hqmoduli").glob("*.py")
             if p.name != "qmatrix.py"
             and (calls := spectral_calls(ast.parse(p.read_text())))}
    assert not found, f"decompositions outside qmatrix.py: {found}"


def test_decomposition_scan_catches_a_planted_call():
    tree = ast.parse("import numpy as np\nfrom numpy import linalg\n"
                     "w = np.linalg.eigvalsh(a)\ns = linalg.svd(a)\n"
                     "n = np.linalg.norm(a)\nv = x.eigh()\n"
                     "e = np.linalg.eig\n")
    assert spectral_calls(tree) == ["linalg.eigvalsh (line 3)",
                                    "linalg.svd (line 4)",
                                    "linalg.eig (line 7)"]


def any_all_calls(tree: ast.Module) -> list[str]:
    """Calls of np.any/np.all and of the .any()/.all() methods, whose
    Python wrappers cost several times the one C call of np.count_nonzero
    on the package's small arrays.  The builtins any(gen) and all(gen)
    are plain names, so they stay allowed."""
    return [f"{node.func.attr} (line {node.lineno})"
            for node in sorted(ast.walk(tree), key=lambda x: getattr(x, "lineno", 0))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("any", "all")]


def test_array_decisions_use_count_nonzero():
    found = {p.name: calls
             for p in (ROOT / "src" / "hqmoduli").glob("*.py")
             if (calls := any_all_calls(ast.parse(p.read_text())))}
    assert not found, f"numpy any/all calls in the package: {found}"


def test_any_all_scan_catches_a_planted_call():
    tree = ast.parse("import numpy as np\nok = any(x > 0 for x in xs)\n"
                     "a = np.any(x > 0)\nb = (x > 0).all()\n"
                     "c = all(map(f, xs))\nd = numpy.all(x, axis=0)\n"
                     "e = x.any\nn = np.count_nonzero(x)\n")
    assert any_all_calls(tree) == ["any (line 3)", "all (line 4)",
                                   "all (line 6)"]


def unimported_thresholds(tol: ast.Module, modules) -> list[str]:
    """Names that tol.py assigns and no other module imports from it."""
    named = [t.id for node in tol.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)]
    imported = {alias.name for tree in modules for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "tol"
                for alias in node.names}
    return [name for name in named if name not in imported]


def test_every_threshold_in_tol_is_used():
    src = ROOT / "src" / "hqmoduli"
    unused = unimported_thresholds(
        ast.parse((src / "tol.py").read_text()),
        [ast.parse(p.read_text()) for p in src.glob("*.py")
         if p.name != "tol.py"])
    assert not unused, f"thresholds no module imports: {unused}"


def test_threshold_use_scan_catches_a_dead_name():
    tol = ast.parse("A = 1e-9  # of 1\nB = 1e-8\nC = 1e-7\n")
    modules = [ast.parse("from .tol import A\n"),
               ast.parse("from hqmoduli.tol import C as D\n"),
               ast.parse("from .other import B\n")]
    assert unimported_thresholds(tol, modules) == ["B"]


def private_imports(tree: ast.Module) -> list[str]:
    """Names with a leading underscore that an import from the package,
    relative or from hqmoduli, binds, other than the SHARED_PRIVATE ones."""
    found = []
    for node in sorted(ast.walk(tree), key=lambda x: getattr(x, "lineno", 0)):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] != "hqmoduli":
            continue
        found += [f"{parts[-1]}.{alias.name} (line {node.lineno})"
                  for alias in node.names if alias.name.startswith("_")
                  and (parts[-1], alias.name) not in SHARED_PRIVATE]
    return found


def test_no_private_names_cross_package_modules():
    found = {p.name: names
             for p in (ROOT / "src" / "hqmoduli").glob("*.py")
             if (names := private_imports(ast.parse(p.read_text())))}
    assert not found, f"private names imported from another module: {found}"


def test_private_import_scan_catches_a_planted_name():
    tree = ast.parse("from .quat import Quaternion, _new\n"
                     "from .positive import _check_distinct\n"
                     "from numpy import _core\n"
                     "def f():\n    from hqmoduli.gram import _zeroed as z\n"
                     "from hqmoduli.quat import _new\nfrom . import _tol\n")
    assert private_imports(tree) == ["positive._check_distinct (line 2)",
                                     "gram._zeroed (line 5)", "._tol (line 7)"]


# outside gram.py, its home, the zero-product rule may run only in the
# partition of a raw Gram matrix, which has no record to read the pattern off
ZERO_RULE_CALLERS = {"positive.py": {"detect_partition"}}


def zero_rule_calls(tree: ast.Module, allowed=()) -> list[str]:
    """Calls of nonzero_products, by name or attribute, outside the
    functions named in `allowed`."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for node in ast.walk(fn)}
    return [f"nonzero_products (line {node.lineno})"
            for node in sorted(ast.walk(tree), key=lambda x: getattr(x, "lineno", 0))
            if isinstance(node, ast.Call) and id(node) not in inside
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "nonzero_products"]


def test_zero_products_are_decided_on_the_record():
    found = {p.name: calls
             for p in (ROOT / "src" / "hqmoduli").glob("*.py")
             if p.name != "gram.py"
             and (calls := zero_rule_calls(ast.parse(p.read_text()),
                                           ZERO_RULE_CALLERS.get(p.name, ())))}
    assert not found, f"zero-product rule outside the Lifts record: {found}"


def test_zero_rule_scan_catches_a_planted_call():
    tree = ast.parse("from .gram import nonzero_products\n"
                     "def detect_partition(g):\n    return nonzero_products(g)\n"
                     "def triangle_params(u):\n    return nonzero_products(u)\n"
                     "nz = gram.nonzero_products(u)\nf = nonzero_products\n")
    assert zero_rule_calls(tree, {"detect_partition"}) == [
        "nonzero_products (line 5)", "nonzero_products (line 6)"]
    assert zero_rule_calls(tree) == [
        "nonzero_products (line 3)", "nonzero_products (line 5)",
        "nonzero_products (line 6)"]


def dataclass_mentions(source: str) -> list[str]:
    """Lines that name `dataclass`: each decorated class runs `exec` on its
    generated methods when its module is imported, which every CLI process
    pays; the package's records are declared by hand, as Quaternion is."""
    return [f"line {k}" for k, line in enumerate(source.splitlines(), 1)
            if "dataclass" in line]


def test_records_are_declared_by_hand():
    found = {p.name: lines
             for p in (ROOT / "src" / "hqmoduli").glob("*.py")
             if (lines := dataclass_mentions(p.read_text()))}
    assert not found, f"dataclass in the package: {found}"


def test_dataclass_scan_catches_a_planted_record():
    source = ("import dataclasses\nfrom operator import itemgetter\n"
              "@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int\n"
              "class B(tuple):\n    __slots__ = ()\n")
    assert dataclass_mentions(source) == ["line 1", "line 3"]


# the classes that may derive from tuple itself: the base of the tuple
# records, and the record of a tuple's lifts, which carries arrays
TUPLE_BASES = {("quat.py", "Record"), ("gram.py", "Lifts")}


def tuple_subclasses(tree: ast.Module, module: str) -> list[str]:
    """Classes of the module with `tuple` among their bases, other than
    the TUPLE_BASES: every other record names its fields on quat.Record,
    which holds the one `__getnewargs__` and `as_tuple`."""
    return [f"{node.name} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and (module, node.name) not in TUPLE_BASES
            and any(getattr(b, "id", getattr(b, "attr", None)) == "tuple"
                    for b in node.bases)]


def test_records_derive_from_record():
    found = {p.name: names
             for p in (ROOT / "src" / "hqmoduli").glob("*.py")
             if (names := tuple_subclasses(ast.parse(p.read_text()), p.name))}
    assert not found, f"records deriving from tuple directly: {found}"


def test_tuple_subclass_scan_catches_a_planted_record():
    source = ("class Record(tuple):\n    pass\n"
              "class A(Record, fields='x'):\n    pass\n"
              "class B(tuple):\n    pass\n"
              "class C(object, tuple, metaclass=type):\n    pass\n"
              "class D(builtins.tuple):\n    pass\n")
    tree = ast.parse(source)
    assert tuple_subclasses(tree, "quat.py") == [
        "B (line 5)", "C (line 7)", "D (line 9)"]
    assert tuple_subclasses(tree, "gram.py") == [
        "Record (line 1)", "B (line 5)", "C (line 7)", "D (line 9)"]
