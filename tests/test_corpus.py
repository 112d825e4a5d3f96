"""Frozen behaviour corpus: coordinates, Gram inertia and triangle answers
of seeded inputs must keep reproducing (see tests/data/make_corpus.py)."""

import importlib.util
import json
from pathlib import Path

from hqmoduli.hform import HVector

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("make_corpus",
                                               DATA / "make_corpus.py")
make_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_corpus)

CORPUS = json.loads((DATA / "corpus.json").read_text())
FLOAT_TOL = 1e-12


def mismatch(want, got, path="$"):
    """Path of the first difference between two JSON values (floats
    within FLOAT_TOL relative to max(1, |want|)), or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or want.keys() != got.keys():
            return f"{path}: keys {sorted(want)} vs {got!r}"
        return next((d for k in want
                     if (d := mismatch(want[k], got[k], f"{path}.{k}"))), None)
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return f"{path}: {want!r} vs {got!r}"
        return next((d for i, (a, b) in enumerate(zip(want, got))
                     if (d := mismatch(a, b, f"{path}[{i}]"))), None)
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        ok = abs(want - got) <= FLOAT_TOL * max(1.0, abs(want))
        return None if ok else f"{path}: {want!r} vs {got!r}"
    return None if (want == got and type(want) is type(got)) \
        else f"{path}: {want!r} vs {got!r}"


def test_corpus_covers_every_shape_model_and_scale():
    shapes = {(e["kind"], e["n"], e["m"]) for e in CORPUS["tuples"]}
    want = {(kind, n, m) for kind, ns in make_corpus.SHAPES.items()
            for n, m in ns}
    assert shapes == want
    for e in CORPUS["tuples"]:
        assert [c["scale"] for c in e["cases"]] == list(make_corpus.SCALES)
    assert {e["model"] for e in CORPUS["tuples"]} == set(make_corpus.MODELS)
    assert len(CORPUS["tuples"]) == (len(want) * len(make_corpus.SEEDS)
                                     * len(make_corpus.MODELS))


def test_tuple_coordinates_and_inertia_reproduce():
    failures = []
    for entry in CORPUS["tuples"]:
        points = tuple(HVector.from_json(p) for p in entry["points"])
        for want in entry["cases"]:
            diff = mismatch(want, make_corpus.case(entry["kind"], points,
                                                   want["scale"]))
            if diff:
                failures.append((entry["kind"], entry["n"], entry["m"],
                                 entry["seed"], entry["model"], diff))
    assert not failures, failures[:5]


def test_triangle_slice_reproduces():
    failures = [d for want in CORPUS["triangles"]
                if (d := mismatch(want, make_corpus.triangle_case(
                    want["params"])))]
    assert not failures, failures[:5]
