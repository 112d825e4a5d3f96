"""Moduli coordinates for ordered m-tuples of distinct boundary (null)
points: Cartan angular invariant, semi-normalized Gram matrices and the
associated t-vector.  Every stage reads the products of the lifts from
one Gram matrix.

A semi-normalized Gram matrix has zero diagonal, ones on the first
off-diagonal, and g_13 = -e^{-i*alpha} with alpha in [0, pi/2].  The
remaining freedom is simultaneous conjugation of all entries by a unit
quaternion, which rotation normalization removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInputError, DomainError, InconsistencyError, UsageError
from .gram import (PRODUCT_EPS, gram, inertia, point_classes, rescale_gram,
                   triple_product, triple_product_vanishes)
from .hform import HVector, PointClass
from .qmatrix import QMatrix
from .quat import ONE, J, Quaternion, nu, quat, rotation_normalize_vector

SEMI_TOL = 1e-8          # postcondition tolerance for the normalized form


@dataclass(frozen=True)
class ModuliCoordinate:
    """Complete invariant of a boundary tuple: stratum tag + canonical
    t-vector (and the Cartan invariant of the leading triple)."""

    stratum: str
    v: tuple[Quaternion, ...]
    alpha: float

    @property
    def entries(self) -> tuple[Quaternion, ...]:
        return self.v

    def to_json(self) -> dict:
        return {"stratum": self.stratum,
                "alpha": self.alpha,
                "v": [q.to_json() for q in self.v]}


def _boundary_gram(points) -> QMatrix:
    """Gram matrix of a tuple of at least 3 null points whose pairwise
    products do not vanish."""
    points = list(points)
    if len(points) < 3:
        raise UsageError("need at least 3 boundary points")
    g = gram(points)
    if any(c != PointClass.NULL for c in point_classes(points, g)):
        raise DomainError("boundary tuple must consist of null points")
    norms = [p.norm() for p in points]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(g.entry(i, j)) <= PRODUCT_EPS * norms[i] * norms[j]:
                raise DegenerateInputError(
                    f"points {i + 1} and {j + 1} have vanishing product; "
                    "distinct null points cannot be orthogonal")
    return g


def cartan_invariant(p1: HVector, p2: HVector, p3: HVector) -> float:
    """Angular invariant arccos(Re(-T)/|T|) in [0, pi/2] of a triple of
    distinct null points, T the triple Hermitian product."""
    g = _boundary_gram([p1, p2, p3])
    if triple_product_vanishes(g, (p1, p2, p3)):
        raise DomainError("triple product vanishes; points not distinct")
    t = triple_product(g)
    c = max(-1.0, min(1.0, -t.re() / abs(t)))
    return math.acos(c)


def semi_normalize(points):
    """Diagonal rescaling D and the resulting semi-normalized Gram
    matrix.

    Returns (d, G, alpha) with d the list of diagonal entries of D and
    gram(p_i d_i) = G.  Chain-solves the unit off-diagonal conditions
    left to right, then applies the nu-based rotation that makes g_13 a
    unit complex number of the form -e^{-i*alpha}.
    """
    g0 = _boundary_gram(points)
    m = g0.shape[0]

    lam = [ONE] * m
    for i in range(1, m):
        # <p_{i-1} lam_{i-1}, p_i lam_i> = conj(lam_i) g_{i,i-1} lam_{i-1} = 1
        lam[i] = (g0.entry(i, i - 1) * lam[i - 1]).inverse().conj()

    # q = <p_1, p_3 lam_3>; rotate its imaginary part onto the i-axis
    q = lam[2].conj() * g0.entry(2, 0)
    aq = abs(q)
    if q.im_vec().norm() <= 1e-14 * (1.0 + aq):
        lam1 = ONE / math.sqrt(aq)
    else:
        lam1 = nu(q.im_vec()) / math.sqrt(aq)

    d = [lam1]
    for i in range(2, m + 1):  # 1-based index
        if i % 2 == 1:
            d.append(lam[i - 1] * lam1)
        else:
            d.append(lam[i - 1] * lam1.conj().inverse())

    g = rescale_gram(g0, d)
    g13 = g.entry(0, 2)
    if abs(g13.a2) > SEMI_TOL or abs(g13.a3) > SEMI_TOL:
        raise InconsistencyError("g_13 failed to land in the complex plane")
    if g13.a1 < 0.0:
        # conjugate everything by j to flip the sign of alpha
        d = [x * J for x in d]
        g = rescale_gram(g0, d)
        g13 = g.entry(0, 2)

    for i in range(m):
        if abs(g.entry(i, i)) > SEMI_TOL:
            raise InconsistencyError("nonzero diagonal after normalization")
        if i >= 1 and abs(g.entry(i - 1, i) - ONE) > SEMI_TOL:
            raise InconsistencyError("off-diagonal chain entry is not 1")
    if abs(abs(g13) - 1.0) > SEMI_TOL:
        raise InconsistencyError("g_13 is not a unit quaternion")

    alpha = math.acos(max(-1.0, min(1.0, -g13.a0)))
    return d, g, alpha


def gram_to_vector(g: QMatrix) -> list[Quaternion]:
    """The t-vector (g_13, g_14, g_24, ..., g_1m, ..., g_{m-2,m}) of a
    semi-normalized m x m Gram matrix, t = (m-1)(m-2)/2."""
    m = g.shape[0]
    out = []
    for j in range(3, m + 1):          # 1-based column
        for i in range(1, j - 1):      # rows 1 .. j-2
            out.append(g.entry(i - 1, j - 1))
    return out


def vector_to_gram(v) -> QMatrix:
    """Hermitian completion of a t-vector back to the semi-normalized
    Gram matrix (zero diagonal, unit first off-diagonal)."""
    v = [quat(x) for x in v]
    t = len(v)
    # t = (m-1)(m-2)/2
    m = int(round((3 + math.sqrt(1 + 8 * t)) / 2))
    if (m - 1) * (m - 2) // 2 != t:
        raise UsageError(f"vector length {t} is not triangular")
    g = QMatrix.zeros(m, m)
    for i in range(1, m):
        g.set_entry(i - 1, i, ONE)
        g.set_entry(i, i - 1, ONE)
    pos = 0
    for j in range(3, m + 1):
        for i in range(1, j - 1):
            g.set_entry(i - 1, j - 1, v[pos])
            g.set_entry(j - 1, i - 1, v[pos].conj())
            pos += 1
    return g


def validate_boundary_vector(v, n: int) -> bool:
    """True iff the t-vector completes to a Gram matrix realizable by m
    distinct null points in H^{n,1}: n_plus <= n and n_minus = 1."""
    v = [quat(x) for x in v]
    if not v:
        raise UsageError("empty boundary vector")
    v1 = v[0]
    if (abs(abs(v1) - 1.0) > 1e-6 or abs(v1.a2) > 1e-6 or abs(v1.a3) > 1e-6
            or v1.a0 > 1e-6 or v1.a1 < -1e-6):
        raise UsageError("v_1 must be a unit complex -e^{-i*alpha}, "
                         "alpha in [0, pi/2]")
    iner = inertia(vector_to_gram(v))
    return iner.n_plus <= n and iner.n_minus == 1


def boundary_coordinate(points) -> ModuliCoordinate:
    """Canonical moduli coordinate of an ordered tuple of distinct null
    points: semi-normalize, extract the t-vector, rotation-normalize."""
    _, g, alpha = semi_normalize(points)
    v = gram_to_vector(g)
    _, vn, tag = rotation_normalize_vector(v)
    return ModuliCoordinate(tag, tuple(vn), alpha)
