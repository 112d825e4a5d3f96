"""Frozen behaviour corpus: coordinates, Gram inertia and triangle answers
of seeded inputs must keep reproducing (see tests/data/make_corpus.py)."""

import importlib.util
import json
from itertools import combinations
from pathlib import Path

from hqmoduli import positive
from hqmoduli.gram import Lifts
from hqmoduli.hform import HVector

DATA = Path(__file__).parent / "data"


def load(name):
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_corpus = load("make_corpus")
make_sub_blocks = load("make_sub_blocks")

CORPUS = json.loads((DATA / "corpus.json").read_text())
SUB_BLOCKS = json.loads((DATA / "sub_blocks.json").read_text())
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


def test_sub_block_set_covers_both_models_and_forest_edges_across_sub_blocks(
        monkeypatch):
    # every pattern in both models, two or three sub-blocks each; each one
    # with several sub-blocks in a block is aligned along a forest edge
    # between two of them, and such edges run up and down in index
    assert [(e["name"], e["model"]) for e in SUB_BLOCKS] == [
        (name, model) for name in make_sub_blocks.PATTERNS
        for model in make_sub_blocks.MODELS]
    forests, align = [], positive.align

    def recording(lifts, edges, d=None):
        forests.append(list(edges))
        return align(lifts, forests[-1], d)
    monkeypatch.setattr(positive, "align", recording)
    across = set()
    for entry in SUB_BLOCKS:
        points = tuple(HVector.from_json(p) for p in entry["points"])
        forests.clear()
        structure = positive.positive_coordinate(points).structure
        assert sum(map(len, structure.sub_blocks)) in (2, 3)
        assert len(forests) == 1
        sub = {a: sb for sbs in structure.sub_blocks for sb in sbs for a in sb}
        edges = {(c, t) for c, t in forests[0] if sub[c] != sub[t]}
        assert edges or all(len(sbs) == 1 for sbs in structure.sub_blocks)
        across |= edges
    assert across == {(3, 5), (1, 5), (1, 4), (6, 5), (6, 7), (1, 9)}
    assert any(c < t for c, t in across) and any(c > t for c, t in across)


def test_sub_block_coordinates_reproduce():
    failures = []
    for entry in SUB_BLOCKS:
        points = tuple(HVector.from_json(p) for p in entry["points"])
        diff = mismatch(entry["coordinate"],
                        positive.positive_coordinate(points).to_json())
        if diff:
            failures.append((entry["name"], entry["model"], diff))
    assert not failures, failures[:5]


def test_sub_block_vanishing_products_are_exact_zeros():
    # the canonical entry of every pair that the zero rule marks vanishing,
    # across blocks or inside one, is 0, not rounding noise turned by units
    for entry in SUB_BLOCKS:
        lifts = Lifts(HVector.from_json(p) for p in entry["points"])
        entries = positive.positive_coordinate(lifts).to_json()["entries"]
        pairs = combinations(range(len(lifts)), 2)
        zeros = [x for x, (a, b) in zip(entries, pairs) if not lifts.nz[a, b]]
        assert zeros and zeros == [[0.0] * 4] * len(zeros), entry["name"]
