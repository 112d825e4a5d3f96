"""Write tests/data/corpus.json, the frozen behaviour corpus.

For seeded boundary, regular and parabolic tuples in both models the
corpus stores the lifts, and for the lifts as given and for a copy scaled
by 1e-3 it stores the moduli coordinate (its ``to_json()`` form) and the
inertia of the Gram matrix.  It also stores existence and class for a
slice of the default ``triangle-sweep`` grid.  ``tests/test_corpus.py``
recomputes all of it and requires agreement: strings, structures and tags
exactly, floats to 1e-12.

The seeds are fixed here once; never re-draw or drop one.  Regenerate only
on purpose, from a tree whose output is known to be right:

    PYTHONPATH=src python3 tests/data/make_corpus.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from hqmoduli.boundary import boundary_coordinate
from hqmoduli.errors import HQError
from hqmoduli.gram import gram, inertia
from hqmoduli.hform import BALL, SIEGEL
from hqmoduli.positive import positive_coordinate
from hqmoduli.sampling import (random_null_tuple, random_parabolic_tuple,
                               random_regular_tuple)
from hqmoduli.triangle import (TriangleParams, classify_triangle,
                               realize_triangle, triangle_exists)

OUT = Path(__file__).with_name("corpus.json")

SHAPES = {"boundary": ((2, 3), (2, 4), (3, 5), (3, 8)),
          "regular": ((2, 3), (2, 4), (3, 5)),
          "parabolic": ((3, 4), (3, 5))}
SEEDS = (0, 1, 2, 3)
MODELS = (BALL, SIEGEL)
SCALES = (1.0, 1e-3)

SAMPLERS = {"boundary": random_null_tuple, "regular": random_regular_tuple,
            "parabolic": random_parabolic_tuple}

# A slice of the default `triangle-sweep` grid (20 radii in [0, 2], 10
# angles in [0, pi/2]).
SWEEP_RS = np.linspace(0.0, 2.0, 20)
SWEEP_ALPHAS = np.linspace(0.0, math.pi / 2, 10)
TRIANGLE_SLICE = (SWEEP_RS[::4], SWEEP_RS[::4], SWEEP_RS[::2],
                  SWEEP_ALPHAS[::3])


def coordinate(kind: str, points):
    return (boundary_coordinate(points) if kind == "boundary"
            else positive_coordinate(points))


def case(kind: str, points, scale: float) -> dict:
    """Coordinate and Gram inertia of the tuple with its lifts scaled;
    the name of the error class when the library raises."""
    points = tuple(p.scaled(scale) for p in points)
    out = {"scale": scale}
    try:
        out["coordinate"] = coordinate(kind, points).to_json()
        out["inertia"] = list(inertia(gram(points)).as_tuple())
    except HQError as exc:
        out["error"] = type(exc).__name__
    return out


def triangle_case(params) -> dict:
    tp = TriangleParams(*(float(x) for x in params))
    exists = triangle_exists(tp)
    cls = classify_triangle(*realize_triangle(tp)).value if exists else None
    return {"params": list(tp.as_tuple()), "exists": exists, "class": cls}


def build() -> dict:
    tuples = []
    for kind, shapes in SHAPES.items():
        for n, m in shapes:
            for seed in SEEDS:
                for model in MODELS:
                    points = SAMPLERS[kind](n, m, seed, model)
                    tuples.append({
                        "kind": kind, "n": n, "m": m, "seed": seed,
                        "model": model,
                        "points": [p.to_json() for p in points],
                        "cases": [case(kind, points, s) for s in SCALES]})
    r1s, r2s, r3s, alphas = TRIANGLE_SLICE
    triangles = [triangle_case((r1, r2, r3, a))
                 for r1 in r1s for r2 in r2s for r3 in r3s for a in alphas]
    return {"tuples": tuples, "triangles": triangles}


if __name__ == "__main__":
    OUT.write_text(json.dumps(build(), separators=(",", ":")) + "\n")
    print(f"wrote {OUT}")
