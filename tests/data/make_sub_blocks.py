"""Write tests/data/sub_blocks.json, the frozen reference for regular
tuples with several sub-blocks.

The seeded tuples of corpus.json have no vanishing product, so each block
is one sub-block, and `positive.regular_coordinate` aligns it along the
star from its anchor.  Here each tuple is realized from a unit-diagonal
Gram matrix with an explicit zero pattern, in both models, then moved by a
seeded isometry and per-point rescaling so that the block normalization
has phases to turn.  The patterns give two or three sub-blocks per tuple:
sub-blocks whose entries have two independent imaginary parts, real ones
and one-point ones, joined by edges of the record's spanning forest
(`Lifts.plan`) that run up and down in index, plus a tuple of two
blocks, whose cross entries all vanish.  The coordinate writes every
vanishing product, inside a block or across blocks, as 0.

The file stores the lifts and the coordinate's ``to_json()``;
``tests/test_corpus.py`` recomputes it and requires agreement: structures
exactly, floats to 1e-12.  The file was written when a vanishing product
was stored as the rounding noise of its moved lifts, at most 4.6e-15,
which is within that tolerance of the 0 written now.  Regenerate only on
purpose, from a tree whose output is known to be right:

    PYTHONPATH=src python3 tests/data/make_sub_blocks.py
"""

from __future__ import annotations

import json
from pathlib import Path

from hqmoduli.gram import realize
from hqmoduli.hform import BALL, SIEGEL, random_isometry
from hqmoduli.positive import positive_coordinate
from hqmoduli.qmatrix import QMatrix
from hqmoduli.quat import Quaternion as Q
from hqmoduli.sampling import random_rescaling

OUT = Path(__file__).with_name("sub_blocks.json")
MODELS = (BALL, SIEGEL)

# four points, anchor first, whose entries off the anchor row have two
# independent imaginary parts, and three with all entries real; a comment
# names a product by 1-based indices, a sub-block by 0-based ones
SIGN4 = {(0, 1): Q(0.2, 0.03, -0.05, 0.02), (0, 2): Q(0.15, -0.02, 0.01, 0.04),
         (0, 3): Q(0.1, 0.05, 0.02, -0.01), (1, 2): Q(0.1, 0.05, 0.02, 0.03),
         (2, 3): Q(0.05, -0.04, 0.06, 0.01)}
REAL3 = {(0, 1): Q(0.12), (0, 2): Q(0.1), (1, 2): Q(0.09)}


def shift(products: dict, k: int) -> dict:
    return {(a + k, b + k): q for (a, b), q in products.items()}


# name -> (m, nonzero products above the diagonal)
PATTERNS = {
    # (0,1,2,3), (4,5,6,7): joined through g_46
    "sign-sign": (8, {**SIGN4, **shift(SIGN4, 4),
                      (3, 5): Q(0.12, -0.03, 0.01, 0.05)}),
    # (0,1,2,3), (4,5,6): joined through g_26
    "sign-real": (7, {**SIGN4, **shift(REAL3, 4),
                      (1, 5): Q(0.09, 0.04, -0.02, 0.01)}),
    # (0,1,2,3,6), (5,7), (4,): joined through g_25, g_76 and g_78
    "sign-real-point": (8, {**SIGN4, (1, 4): Q(0.11, 0.02, 0.03, -0.04),
                            **shift(REAL3, 5),
                            (2, 6): Q(0.07, -0.01, 0.02, 0.05)}),
    # (0,1,2,3), (4,5,6,7), (8,9,10): joined through g_46, then g_2,10
    "sign-sign-real": (11, {**SIGN4, **shift(SIGN4, 4),
                            (3, 5): Q(0.12, -0.03, 0.01, 0.05),
                            **shift(REAL3, 8),
                            (1, 9): Q(0.06, 0.02, 0.01, -0.03)}),
    # blocks (0,1,2,3,4) and (5,6,7): cross entries all zero
    "two-blocks": (8, {**SIGN4, (2, 4): Q(0.1, 0.02, -0.05, 0.03),
                       **shift(REAL3, 5)}),
}


def unit_diagonal_gram(m: int, products: dict) -> QMatrix:
    g = QMatrix.eye(m)
    for (a, b), q in products.items():
        g.set_entry(a, b, q)
        g.set_entry(b, a, q.conj())
    return g


def points(name: str, model: str, seed: int):
    """The pattern's tuple in H^{m,1} of the model, moved by a seeded
    isometry and rescaling."""
    m, products = PATTERNS[name]
    g = random_isometry(m, seed=seed, model=model)
    d = random_rescaling(m, seed=seed)
    return tuple(g.apply(p).rescale(x) for p, x in
                 zip(realize(unit_diagonal_gram(m, products), m, model), d))


def build() -> list[dict]:
    out = []
    for seed, name in enumerate(PATTERNS):
        for model in MODELS:
            pts = points(name, model, seed)
            out.append({"name": name, "model": model,
                        "points": [p.to_json() for p in pts],
                        "coordinate": positive_coordinate(pts).to_json()})
    return out


if __name__ == "__main__":
    OUT.write_text(json.dumps(build(), separators=(",", ":")) + "\n")
    print(f"wrote {OUT}")
