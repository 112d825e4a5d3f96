"""Gram matrices of point tuples in H^{n,1}: computation, inertia,
admissibility, and realization of an admissible Hermitian matrix by an
explicit tuple of points.

Conventions: for a tuple p = (p_1, ..., p_m) the Gram matrix has entries
g_ij = <p_j, p_i> = p_i* J p_j, so G = P* J P with P the column matrix.
Congruence acts by G -> D* G D for an invertible right factor D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistencyError, RealizationError, UsageError
from .hform import (BALL, NULL_EPS, HVector, PointClass, cayley, columns,
                    form_matrix, point_class, tuple_from_columns)
from .qmatrix import QMatrix
from .quat import Quaternion

INERTIA_EPS = 1e-9    # relative spectral threshold for zero eigenvalues
PIVOT_EPS = 1e-12     # relative pivot threshold in congruence reduction
# A product of lifts vanishes when it is at most PRODUCT_EPS times the
# matching product of their Euclidean norms, so rescaling the lifts never
# changes the decision.
PRODUCT_EPS = 1e-12


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_minus: int
    n_zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus


def gram(points) -> QMatrix:
    """Gram matrix G with g_ij = <p_j, p_i> of a tuple of HVectors."""
    points = list(points)
    p = columns(points)
    j = form_matrix(points[0].model, points[0].n)
    return p.h @ (j @ p)


def point_classes(points, g: QMatrix) -> list[PointClass]:
    """Classes of the lifts read off the diagonal of their Gram matrix."""
    return [point_class(g.entry(i, i).re(), p.norm(), NULL_EPS)
            for i, p in enumerate(points)]


def triple_product(g: QMatrix) -> Quaternion:
    """<p1, p2, p3> = <p2,p1><p3,p2><p1,p3> = g_12 g_23 g_31 for the Gram
    matrix g of (p1, p2, p3) (lift dependent only up to
    lambda-bar (.) lambda)."""
    return g.entry(0, 1) * g.entry(1, 2) * g.entry(2, 0)


def triple_product_vanishes(g: QMatrix, points) -> bool:
    """True when |<p1, p2, p3>| <= PRODUCT_EPS (|p1| |p2| |p3|)^2."""
    scale = math.prod(p.norm() for p in points) ** 2
    return abs(triple_product(g)) <= PRODUCT_EPS * scale


def permute_gram(g: QMatrix, sigma) -> QMatrix:
    """Gram matrix of the reordered tuple (p_sigma(1), ..., p_sigma(m)).

    `sigma` lists 0-based source indices; it must be a permutation."""
    m = g.shape[0]
    sigma = list(sigma)
    if sorted(sigma) != list(range(m)):
        raise UsageError("sigma is not a permutation of 0..m-1")
    idx = np.array(sigma)
    return QMatrix(g.c1[np.ix_(idx, idx)], g.c2[np.ix_(idx, idx)])


def rescale_gram(g: QMatrix, lambdas) -> QMatrix:
    """Gram matrix of the rescaled tuple (p_1 lambda_1, ...):
    D* G D with D = diag(lambdas)."""
    d = QMatrix.diagonal(lambdas)
    return d.h @ (g @ d)


def inertia(g: QMatrix, eps: float = INERTIA_EPS) -> Inertia:
    """Signature (n_plus, n_minus, n_zero) of a Hermitian quaternion
    matrix.  Uses the complex adjoint, whose spectrum doubles each real
    eigenvalue."""
    if g.shape[0] != g.shape[1]:
        raise UsageError("inertia needs a square matrix")
    if not g.is_hermitian(1e-8):
        raise DomainError("inertia needs a Hermitian matrix")
    w = np.linalg.eigvalsh(g.adjoint())
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0:
        return Inertia(0, 0, g.shape[0])
    tol = eps * scale
    npos = int(np.sum(w > tol))
    nneg = int(np.sum(w < -tol))
    nzero = w.size - npos - nneg
    if npos % 2 or nneg % 2 or nzero % 2:
        raise InconsistencyError(
            "adjoint spectrum does not split into quaternionic pairs; "
            "an eigenvalue sits exactly at the zero threshold")
    return Inertia(npos // 2, nneg // 2, nzero // 2)


def check_admissible(iner: Inertia, n: int) -> None:
    """Raise RealizationError naming the first violated inertia condition
    for realizability in H^{n,1}."""
    if iner.n_minus > 1:
        raise RealizationError("n_minus <= 1")
    if iner.n_plus > n:
        raise RealizationError("n_plus <= n")
    if iner.n_plus + iner.n_minus > n + 1:
        raise RealizationError("n_plus + n_minus <= n + 1")
    if iner.n_plus + iner.n_minus < 1:
        raise RealizationError("n_plus + n_minus >= 1")


def _reduce_congruence(g: QMatrix) -> tuple[QMatrix, list[float]]:
    """Invertible S with S* G S diagonal with entries in {+1, -1, 0}.

    Returns (S, diagonal).  Symmetric pivoting on the largest diagonal
    entry; a rank-one trick handles blocks whose diagonal vanishes but
    which have off-diagonal mass.
    """
    m = g.shape[0]
    s = QMatrix.eye(m)
    scale = max(g.norm(), 1.0)

    def current() -> QMatrix:
        return s.h @ (g @ s)

    for r in range(m):
        b = current()
        # pivot: largest remaining |diagonal|
        diag = [abs(b.entry(t, t).re()) for t in range(r, m)]
        k = r + int(np.argmax(diag))
        if diag[k - r] <= PIVOT_EPS * scale:
            # vanishing diagonal: look for off-diagonal mass to pull in
            best, best_val = None, PIVOT_EPS * scale
            for a in range(r, m):
                for bcol in range(a + 1, m):
                    v = abs(b.entry(a, bcol))
                    if v > best_val:
                        best, best_val = (a, bcol), v
            if best is None:
                break  # remainder is numerically zero
            a, bcol = best
            brs = b.entry(a, bcol)
            mu_ = -brs.conj() / abs(brs)
            # col_a += col_bcol * mu makes the (a,a) entry -2|b_ab| != 0
            addend = s.col(bcol).right_scalar(mu_)
            s.c1[:, a] += addend.c1[:, 0]
            s.c2[:, a] += addend.c2[:, 0]
            b = current()
            diag = [abs(b.entry(t, t).re()) for t in range(r, m)]
            k = r + int(np.argmax(diag))
        if abs(b.entry(k, k).re()) <= PIVOT_EPS * scale:
            break
        if k != r:
            for arr in (s.c1, s.c2):
                arr[:, [r, k]] = arr[:, [k, r]]
            b = current()
        d = b.entry(r, r).re()
        for t in range(r + 1, m):
            coeff = b.entry(r, t) / d
            addend = s.col(r).right_scalar(coeff)
            s.c1[:, t] -= addend.c1[:, 0]
            s.c2[:, t] -= addend.c2[:, 0]

    b = current()
    dvals = []
    for t in range(m):
        d = b.entry(t, t).re()
        if abs(d) <= PIVOT_EPS * scale * 10:
            dvals.append(0.0)
        else:
            for arr in (s.c1, s.c2):
                arr[:, t] /= math.sqrt(abs(d))
            dvals.append(1.0 if d > 0 else -1.0)
    return s, dvals


def realize(g: QMatrix, n: int, model: str = BALL) -> tuple[HVector, ...]:
    """Tuple of points in H^{n,1} whose Gram matrix is g (up to numerical
    error), or RealizationError naming the inertia obstruction."""
    if g.shape[0] != g.shape[1]:
        raise UsageError("realize needs a square Gram matrix")
    if not g.is_hermitian(1e-8):
        raise DomainError("realize needs a Hermitian matrix")
    m = g.shape[0]
    iner = inertia(g)
    check_admissible(iner, n)
    s, dvals = _reduce_congruence(g)

    # frame columns in the ball model: distinct positive coordinates for
    # the +1 slots, coordinate n+1 for the -1 slot, zero for the kernel
    a = QMatrix.zeros(n + 1, m)
    next_pos = 0
    for t, d in enumerate(dvals):
        if d > 0:
            a.c1[next_pos, t] = 1.0
            next_pos += 1
        elif d < 0:
            a.c1[n, t] = 1.0
    p = a @ s.inv()

    # Kernel directions of g leave columns that may coincide (or vanish,
    # for an all-zero row).  When the signature leaves room for a null
    # vector orthogonal to the realized span, adding distinct multiples
    # of it separates the points without changing any product.
    cols = [p.col(t) for t in range(m)]
    zero_cols = [t for t in range(m) if cols[t].norm() <= 1e-12 * max(1.0, p.norm())]
    null_available = iner.n_minus == 0 and iner.n_plus < n
    if zero_cols and not null_available:
        raise RealizationError(
            "isotropic direction available for zero rows")
    if iner.n_zero > 0 and null_available:
        z = QMatrix.zeros(n + 1, 1)
        z.c1[iner.n_plus, 0] = 1.0
        z.c1[n, 0] = 1.0
        for t in range(m):
            add = z.scale(float(t + 1))
            cols[t] = cols[t] + add
    points = tuple_from_columns(QMatrix.from_columns(cols), BALL)
    if model != BALL:
        points = tuple(cayley(q) for q in points)
    return points


def realization_error(points, g: QMatrix) -> float:
    """Frobenius distance between gram(points) and the target g."""
    return (gram(points) - g).norm()


def span_dimension(points) -> int:
    """Quaternionic dimension of the right span of the lifted tuple."""
    return columns(points).rank()
