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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateInputError, DomainError, InconsistencyError, UsageError
from .gram import Lifts, inertia, rescale_gram, triple_product, triple_product_vanishes
from .hform import HVector, PointClass
from .qmatrix import QMatrix
from .quat import ONE, J, Quaternion, negligible, nu, quat, rotation_normalize_vector
from .tol import PRODUCT_EPS, SEMI_TOL, UNIT_EPS

if TYPE_CHECKING:
    from .positive import PartitionStructure


@dataclass(frozen=True)
class Coordinate:
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

    Fields a kind does not use are None."""

    kind: str
    entries: tuple[Quaternion, ...]
    stratum: str | None = None
    structure: PartitionStructure | None = None
    alpha: float | None = None

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


def _nonvanishing(lifts: Lifts) -> None:
    """Raise when some |<p_a, p_b>| <= PRODUCT_EPS |p_a| |p_b|, a != b."""
    n = lifts.norms
    pairs = np.argwhere(np.triu(lifts.g.modulus() <= PRODUCT_EPS * np.outer(n, n), 1))
    if pairs.size:
        i, j = pairs[0]
        raise DegenerateInputError(
            f"points {i + 1} and {j + 1} have vanishing product; "
            "distinct null points cannot be orthogonal")


def cartan_invariant(p1: HVector, p2: HVector, p3: HVector) -> float:
    """Angular invariant arccos(Re(-T)/|T|) in [0, pi/2] of a triple of
    distinct null points, T the triple Hermitian product."""
    lifts = Lifts([p1, p2, p3]).validated(PointClass.NULL, 3, _nonvanishing)
    if triple_product_vanishes(lifts.g, lifts):
        raise DomainError("triple product vanishes; points not distinct")
    t = triple_product(lifts.g)
    return math.acos(max(-1.0, min(1.0, -t.re() / abs(t))))


def semi_normalize(points):
    """Diagonal rescaling D and the resulting semi-normalized Gram
    matrix.

    Returns (d, G, alpha) with d the list of diagonal entries of D and
    gram(p_i d_i) = G.  Chain-solves the unit off-diagonal conditions
    left to right, then applies the nu-based rotation that makes g_13 a
    unit complex number of the form -e^{-i*alpha}.  g_13 is read off the
    scalar factors, and the composed D rescales the Gram matrix once.
    """
    lifts = Lifts(points).validated(PointClass.NULL, 3, _nonvanishing)
    g0, m = lifts.g, len(lifts)

    lam = [ONE] * m
    for i in range(1, m):
        # <p_{i-1} lam_{i-1}, p_i lam_i> = conj(lam_i) g_{i,i-1} lam_{i-1} = 1
        lam[i] = (g0.entry(i, i - 1) * lam[i - 1]).inverse().conj()

    # q = <p_1, p_3 lam_3>; rotate its imaginary part onto the i-axis
    q = lam[2].conj() * g0.entry(2, 0)
    rot = ONE if negligible(q.im_vec().norm(), abs(q)) else nu(q.im_vec())
    lam1 = rot / math.sqrt(abs(q))

    # points 1, 3, 5, ... take lam1 on the right, the others conj(lam1)^-1
    odd, even = lam1, lam1.conj().inverse()
    d = [x * (even if i % 2 else odd) for i, x in enumerate(lam)]

    g13 = d[0].conj() * g0.entry(0, 2) * d[2]
    if abs(g13.a2) > SEMI_TOL or abs(g13.a3) > SEMI_TOL:
        raise InconsistencyError("g_13 failed to land in the complex plane")
    if g13.a1 < 0.0:
        # conjugate everything by j to flip the sign of alpha
        d = [x * J for x in d]
        g13 = J.conj() * g13 * J
    g = rescale_gram(g0, d)

    # classify allowed |<p_i, p_i>| <= eps |p_i|^2; g_ii = |d_i|^2 <p_i, p_i>
    dev = (g - QMatrix.real(np.eye(m, k=1))).modulus()
    lift = lifts.norms * np.array([abs(x) for x in d])
    if np.any(np.diagonal(dev) > lifts.eps * lift ** 2):
        raise InconsistencyError("nonzero diagonal after normalization")
    if np.any(np.diagonal(dev, 1) > SEMI_TOL):
        raise InconsistencyError("off-diagonal chain entry is not 1")
    if abs(abs(g13) - 1.0) > SEMI_TOL:
        raise InconsistencyError("g_13 is not a unit quaternion")

    alpha = math.acos(max(-1.0, min(1.0, -g13.a0)))
    return d, g, alpha


def _t_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the t-vector entries g_ij, j >= i + 2, column
    by column: (1,3), (1,4), (2,4), (1,5), ... in 1-based indices."""
    j, i = np.tril_indices(m, -2)
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
