"""Moduli coordinates for ordered m-tuples of distinct boundary (null)
points: Cartan angular invariant, semi-normalized Gram matrices and the
associated t-vector.  Every stage reads the products of the lifts from
one Gram matrix.

A semi-normalized Gram matrix has zero diagonal, ones on the first
off-diagonal, and g_13 = -e^{-i*alpha} with alpha in [0, pi/2].  The
remaining freedom is simultaneous conjugation of all entries by a unit
quaternion, which rotation normalization removes.

`Coordinate`, the one coordinate type of boundary and positive tuples,
is defined here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InconsistencyError, UsageError
from .gram import Lifts, align, inertia, rescale_gram, triple_product
from .hform import HVector, PointClass
from .qmatrix import QMatrix
from .quat import (ONE, Quaternion, Record, negligible, nu, quat,
                   rotation_normalize_vector)
from .tol import SEMI_TOL, UNIT_EPS


class Coordinate(Record, fields="kind entries stratum structure alpha"):
    """Canonical moduli coordinate of a tuple, one of three kinds:

    * "boundary": the rotation-normalized t-vector of a tuple of null
      points, its stratum tag and the Cartan invariant alpha of the
      leading triple;
    * "parabolic": the rotation-normalized horospherical cross ratios of a
      positive tuple with degenerate span, its stratum tag and partition
      structure;
    * "regular": the strict upper triangle, row-major, of the canonical
      Gram matrix of a positive tuple with nondegenerate span (the
      diagonal is all ones) and its partition structure.

    Fields a kind does not use are None.  An immutable 5-tuple
    (kind, entries, stratum, structure, alpha)."""

    __slots__ = ()

    def __new__(cls, kind: str, entries: tuple[Quaternion, ...],
                stratum: str | None = None, structure=None,
                alpha: float | None = None):
        return tuple.__new__(cls, (kind, entries, stratum, structure, alpha))

    def to_json(self) -> dict:
        entries = [q.to_json() for q in self.entries]
        if self.kind == "boundary":
            return {"stratum": self.stratum, "alpha": self.alpha, "v": entries}
        if self.kind == "parabolic":
            return {"class": "parabolic",
                    "structure": self.structure.to_json(),
                    "stratum": self.stratum, "x": entries}
        return {"class": "regular", "structure": self.structure.to_json(),
                "entries": entries}


def cartan_invariant(p1: HVector, p2: HVector, p3: HVector) -> float:
    """Angular invariant arccos(Re(-T)/|T|) in [0, pi/2] of a triple of
    distinct null points, T the triple Hermitian product, which is nonzero
    because no pairwise product vanishes.  An independent formula on the
    triple product, kept as the reference that the alpha of
    `semi_normalize`, which `boundary_coordinate` reports, is tested
    against."""
    lifts = Lifts([p1, p2, p3]).validated(PointClass.NULL, 3)
    t = triple_product(lifts.g)
    return math.acos(max(-1.0, min(1.0, -t.re() / abs(t))))


def semi_normalize(points):
    """Diagonal rescaling D and the resulting semi-normalized Gram
    matrix.

    Returns (d, G, alpha) with d the list of diagonal entries of D and
    gram(p_i d_i) = G.  D is `align` along the chain of unit off-diagonal
    conditions (i - 1, i), solved once from d_1 = rot / sqrt|q|, with
    q = <p_1, p_3 lam_3> read off the first two edges of the chain lam
    started from 1.  From d_1 the chain gives lam_i d_1 to points 1, 3,
    5, ... and lam_i conj(d_1)^-1 to the others, so
    g_13 = conj(rot) conj(q) rot / |q|.
    rot = nu(Im conj(q)) turns Im conj(q) onto |Im q| i, so Im g_13 >= 0:
    g_13 = -e^{-i*alpha} with alpha in [0, pi/2] as it stands, and no
    conjugation by j has to flip it.  D rescales the Gram matrix once,
    and g_13 is read off the result.
    """
    lifts = Lifts(points).validated(PointClass.NULL, 3)
    g0, m = lifts.g, len(lifts)
    chain = [(i - 1, i) for i in range(1, m)]
    q = align(lifts, chain[:2], [ONE] * m)[2].conj() * g0.entry(2, 0)
    im = q.conj().im_vec()
    rot = ONE if negligible(im.norm(), abs(q)) else nu(im)
    d = align(lifts, chain, [rot / math.sqrt(abs(q))] * m)
    g = rescale_gram(g0, d)

    g13 = g.entry(0, 2)
    if abs(g13.a2) > SEMI_TOL or abs(g13.a3) > SEMI_TOL:
        raise InconsistencyError("g_13 failed to land in the complex plane")

    # classify allowed |<p_i, p_i>| <= eps |p_i|^2; g_ii = |d_i|^2 <p_i, p_i>
    diag = np.sqrt(abs(g.c1.diagonal()) ** 2 + abs(g.c2.diagonal()) ** 2)
    chain = np.sqrt(abs(g.c1.diagonal(1) - 1.0) ** 2
                    + abs(g.c2.diagonal(1)) ** 2)
    lift = lifts.norms * np.array([abs(x) for x in d])
    if np.count_nonzero(diag > lifts.eps * lift ** 2):
        raise InconsistencyError("nonzero diagonal after normalization")
    if np.count_nonzero(chain > SEMI_TOL):
        raise InconsistencyError("off-diagonal chain entry is not 1")
    if abs(abs(g13) - 1.0) > SEMI_TOL:
        raise InconsistencyError("g_13 is not a unit quaternion")

    alpha = math.acos(max(-1.0, min(1.0, -g13.a0)))
    return d, g, alpha


@functools.lru_cache(maxsize=64)
def _t_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows and columns, cached per m, of the t-vector entries
    g_ij, j >= i + 2, column by column: (1,3), (1,4), (2,4), (1,5), ... 1-based."""
    j, i = np.tril_indices(m, -2)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def gram_to_vector(g: QMatrix) -> list[Quaternion]:
    """The t-vector (g_13, g_14, g_24, ..., g_1m, ..., g_{m-2,m}) of a
    semi-normalized m x m Gram matrix, t = (m-1)(m-2)/2."""
    return [g.entry(i, j) for i, j in zip(*_t_index(g.shape[0]))]


def vector_to_gram(v) -> QMatrix:
    """Hermitian completion of a t-vector back to the semi-normalized
    Gram matrix (zero diagonal, unit first off-diagonal)."""
    row = QMatrix.from_entries([v])
    t = row.shape[1]
    # t = (m-1)(m-2)/2
    m = int(round((3 + math.sqrt(1 + 8 * t)) / 2))
    if (m - 1) * (m - 2) // 2 != t:
        raise UsageError(f"vector length {t} is not triangular")
    upper = QMatrix.real(np.eye(m, k=1))
    i, j = _t_index(m)
    upper.c1[i, j], upper.c2[i, j] = row.c1[0], row.c2[0]
    return upper + upper.h


def validate_boundary_vector(v, n: int) -> bool:
    """True iff the t-vector completes to a Gram matrix realizable by m
    distinct null points in H^{n,1}: n_plus <= n and n_minus = 1."""
    v = [quat(x) for x in v]
    if not v:
        raise UsageError("empty boundary vector")
    v1 = v[0]
    if (abs(abs(v1) - 1.0) > UNIT_EPS or abs(v1.a2) > UNIT_EPS
            or abs(v1.a3) > UNIT_EPS or v1.a0 > UNIT_EPS or v1.a1 < -UNIT_EPS):
        raise UsageError("v_1 must be a unit complex -e^{-i*alpha}, "
                         "alpha in [0, pi/2]")
    iner = inertia(vector_to_gram(v))
    return iner.n_plus <= n and iner.n_minus == 1


def boundary_coordinate(points) -> Coordinate:
    """Canonical moduli coordinate of an ordered tuple of distinct null
    points: semi-normalize, extract the t-vector, rotation-normalize."""
    _, g, alpha = semi_normalize(points)
    v = gram_to_vector(g)
    _, vn, tag = rotation_normalize_vector(v)
    return Coordinate("boundary", tuple(vn), tag, alpha=alpha)
