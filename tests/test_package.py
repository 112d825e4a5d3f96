"""The package namespace and what each CLI subcommand imports.

`hqmoduli` exports its names lazily, and the CLI imports the modules
beyond its core inside the handlers that run them, so that one
`python -m hqmoduli.cli` process loads and compiles only what its
subcommand runs."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hqmoduli
from hqmoduli.gram import gram
from hqmoduli.sampling import (random_null_tuple, random_parabolic_tuple,
                               random_regular_tuple)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# every name the package exports, by the module that defines it
EXPORTS = {
    "boundary": ["Coordinate", "boundary_coordinate", "cartan_invariant",
                 "semi_normalize"],
    "errors": ["DegenerateInputError", "DomainError", "HQError",
               "InconsistencyError", "RealizationError", "UsageError"],
    "gram": ["Inertia", "Lifts", "check_admissible", "gram", "inertia",
             "realize", "rescale_gram", "span_dimension"],
    "hform": ["BALL", "SIEGEL", "HVector", "Isometry", "PairConfiguration",
              "PointClass", "classify", "herm", "pair_configuration",
              "pair_isometry", "pair_moduli", "random_isometry", "to_model"],
    "positive": ["INFINITY", "PartitionStructure",
                 "congruent", "coordinate_distance", "cross_ratio",
                 "detect_partition", "one_normalize", "parabolic_coordinates",
                 "positive_coordinate", "regular_coordinate"],
    "qmatrix": ["QMatrix"],
    "quat": ["ImVector3", "Quaternion", "canonical_sign", "mu", "nu", "quat",
             "rotation_normalize_vector"],
    "sampling": ["random_null_tuple", "random_parabolic_tuple",
                 "random_regular_tuple", "random_rescaling", "random_tuple"],
    "triangle": ["TriangleClass", "TriangleParams", "classify_triangle",
                 "normalize_triangle", "realize_triangle", "triangle_det",
                 "triangle_exists", "triangle_params"],
}
ALL = sorted(name for names in EXPORTS.values() for name in names)


# ---------------------------------------------------------------------------
# namespace

def test_all_is_exactly_the_exported_names():
    assert hqmoduli.__all__ == ALL
    assert hqmoduli.__version__ == "0.1.0"


@pytest.mark.parametrize("module,name", [(module, name)
                                         for module, names in EXPORTS.items()
                                         for name in names])
def test_each_name_is_the_object_of_its_module(module, name):
    # gram and quat also name submodules; the package exports the functions
    assert getattr(hqmoduli, name) is getattr(
        importlib.import_module(f"hqmoduli.{module}"), name)


def test_dir_lists_every_exported_name():
    assert set(ALL) <= set(dir(hqmoduli))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hqmoduli import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL
    assert namespace["realize"] is hqmoduli.realize


def test_submodules_import_from_the_package():
    namespace = {}
    exec("from hqmoduli import cli, boundary", namespace)
    assert namespace["cli"] is sys.modules["hqmoduli.cli"]
    assert namespace["boundary"] is sys.modules["hqmoduli.boundary"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hqmoduli.no_such_name
    assert not hasattr(hqmoduli, "tuple_coordinate")
    with pytest.raises(ImportError):
        exec("from hqmoduli import no_such_name", {})


# ---------------------------------------------------------------------------
# what each subcommand imports

OPTIONAL = {"boundary", "positive", "triangle", "sampling"}
# the bench's subcommands, and `random`, with the optional modules each
# may load
LOADS = {"realize": set(), "random": {"sampling"},
         "boundary-coord": {"boundary"},
         "positive-coord": {"boundary", "positive"},
         "congruent": {"boundary", "positive"},
         "triangle": {"triangle"}}
PROBE = """\
import json, sys
from hqmoduli import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules
                               if name.startswith("hqmoduli."))]))
"""


def _write(path, points):
    path.write_text(json.dumps([p.to_json() for p in points]))
    return str(path)


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    null = _write(tmp / "null.json", random_null_tuple(2, 4, 3))
    regular = _write(tmp / "regular.json", random_regular_tuple(2, 4, 3))
    parabolic = _write(tmp / "parabolic.json",
                       random_parabolic_tuple(3, 5, 3))
    g = gram(random_regular_tuple(2, 4, 5))
    (tmp / "gram.json").write_text(json.dumps(
        {"m": 4, "entries": [[g.entry(i, j).to_json() for j in range(4)]
                             for i in range(4)]}))
    return {"realize": ["realize", str(tmp / "gram.json"), "--n", "2"],
            "random": ["random", "positive-regular"],
            "boundary-coord": ["boundary-coord", null],
            "positive-coord": ["positive-coord", parabolic],
            "congruent": ["congruent", regular, regular],
            "triangle": ["triangle", "--r1", "1", "--r2", "1", "--r3", "1"]}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_subcommand_imports_only_what_it_runs(command, argvs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argvs[command]],
                          env=env, capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    loaded = {name.removeprefix("hqmoduli.") for name in modules}
    assert loaded & OPTIONAL <= LOADS[command]
    assert {"errors", "tol", "hform", "gram", "qmatrix", "quat"} <= loaded
