"""The package namespace, what each CLI subcommand imports, and the
value contract of the package's records.

`hqmoduli` exports its names lazily, and the CLI imports the modules
beyond its core inside the handlers that run them, so that one
`python -m hqmoduli.cli` process loads and compiles only what its
subcommand runs.  The records are declared by hand, as `Quaternion` is,
so that importing a module generates no code for them."""

import copy
import importlib
import json
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import hqmoduli
from hqmoduli.boundary import Coordinate
from hqmoduli.gram import Inertia, gram
from hqmoduli.hform import (SIEGEL, HVector, PairConfiguration,
                            random_isometry)
from hqmoduli.positive import PartitionStructure
from hqmoduli.quat import ImVector3, Quaternion
from hqmoduli.sampling import (random_null_tuple, random_parabolic_tuple,
                               random_regular_tuple)
from hqmoduli.triangle import TriangleParams

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
# the modules that only generated record classes need
GENERATED = {"dataclasses", "copy"}
PROBE = f"""\
import json, sys
from hqmoduli import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules
                               if name.startswith("hqmoduli.")
                               or name in {sorted(GENERATED)!r})]))
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
    assert not loaded & GENERATED


# ---------------------------------------------------------------------------
# records

STRUCTURE = PartitionStructure("regular", ((0, 1, 2),), (((0, 1), (2,)),),
                               ((0, 2),))
# each tuple-backed record, with its fields in order
TUPLE_RECORDS = [
    (ImVector3(0.5, -1.0, 2.0), ("x", "y", "z")),
    (Inertia(2, 1, 0), ("n_plus", "n_minus", "n_zero")),
    (PairConfiguration("intersecting", angle=0.5),
     ("kind", "angle", "distance")),
    (Coordinate("regular", (Quaternion(0.5, 1.0), Quaternion(-2.0)),
                structure=STRUCTURE),
     ("kind", "entries", "stratum", "structure", "alpha")),
    (STRUCTURE, ("kind", "blocks", "sub_blocks", "anchors")),
    (TriangleParams(0.5, 1.0, 1.5, 0.25), ("r1", "r2", "r3", "alpha")),
]


@pytest.mark.parametrize("record,fields", TUPLE_RECORDS,
                         ids=[type(r).__name__ for r, _ in TUPLE_RECORDS])
def test_tuple_records_are_immutable_values(record, fields):
    # equal and hashed as the tuple of their fields, which they are
    assert tuple(getattr(record, f) for f in fields) == tuple(record)
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    assert type(record)(*record) == record
    for back in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(back) is type(record) and back == record
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert not hasattr(record, "__dict__")


def test_record_defaults_are_the_unused_fields():
    assert PairConfiguration("asymptotic") == ("asymptotic", None, None)
    assert PartitionStructure("parabolic", ((0, 1),)) == (
        "parabolic", ((0, 1),), (), ())
    assert Coordinate("boundary", (), "Z_R", alpha=0.5) == (
        "boundary", (), "Z_R", None, 0.5)


@pytest.mark.parametrize("record", [
    HVector.from_entries([Quaternion(0.5, 1.0), Quaternion(2.0)], SIEGEL),
    random_isometry(2, 3)], ids=["HVector", "Isometry"])
def test_matrix_records_are_immutable_and_not_tuples(record):
    # equal only to itself, and hashed so
    assert record == record and record != type(record)(record.qm, record.model)
    assert len({record, copy.copy(record)}) == 2
    with pytest.raises(TypeError):
        iter(record)
    for name in ("qm", "model", "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del record.model
    shallow = copy.copy(record)
    assert shallow.qm is record.qm and shallow.model == record.model
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(back) is type(record) and back.model == record.model
        assert back.qm is not record.qm
        assert np.array_equal(back.qm.c1, record.qm.c1)
        assert np.array_equal(back.qm.c2, record.qm.c2)
