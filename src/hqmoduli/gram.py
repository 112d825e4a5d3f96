"""Gram matrices of point tuples in H^{n,1}: computation, inertia,
admissibility, and realization of an admissible Hermitian matrix by an
explicit tuple of points.

Conventions: for a tuple p = (p_1, ..., p_m) the Gram matrix has entries
g_ij = <p_j, p_i> = p_i* J p_j, so G = P* J P with P the column matrix.
Congruence acts by G -> D* G D for an invertible right factor D.

Both the inertia and the realization read the spectrum of the complex
adjoint of G, in which every eigenvalue of G appears twice.  The
eigenvalues are paired before they are compared with the zero threshold,
so `inertia` and `realize` make the same rank decision; `realize` builds
P = F sqrt|L| Q* from the eigendecomposition G = Q L Q* of
`QMatrix.eigh`, the helper the frame constructions of `hform` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, RealizationError, UsageError
from .hform import (BALL, HVector, PointClass, columns, form_adjoint,
                    point_class, to_model, tuple_from_columns)
from .qmatrix import QMatrix, adjoint_rank
from .quat import Quaternion
from .tol import INERTIA_EPS, NULL_EPS, PRODUCT_EPS, STRUCTURE_TOL


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


class Lifts(tuple):
    """A tuple of lifts stacked once: the column matrix `p`, its complex
    adjoint `adj` (for the Gram matrix, the span and the distinctness check),
    its column norms `norms`, the Gram matrix `g` and the class of each lift,
    `classes`, at `eps` (null when |<z,z>| <= eps |z|^2).  `Lifts(lifts)`
    is the record itself, so the stages share and validate one record.
    Its unit-diagonal Gram matrix `unit` is made on first use; the positive
    stages keep on it the zero pattern `nz` and partition `structure`."""

    checked = structure = None

    def __new__(cls, points, eps: float = NULL_EPS):
        if isinstance(points, Lifts):
            return points
        lifts = super().__new__(cls, points)
        lifts.p = columns(lifts)
        lifts.adj = lifts.p.adjoint()
        lifts.norms = np.linalg.norm(lifts.p.modulus(), axis=0)
        lifts.g = gram(lifts)
        lifts.classes = [point_class(s, r, eps) for s, r in
                         zip(lifts.g.c1.diagonal().real, lifts.norms)]
        lifts.eps = eps
        return lifts

    def validated(self, cls: PointClass, least: int, distinct) -> "Lifts":
        """Checked once: at least `least` lifts, all of class `cls`, passing `distinct`."""
        if self.checked is not cls:
            if len(self) < least:
                raise UsageError(f"need at least {least} {cls.value} points")
            if any(c != cls for c in self.classes):
                raise DomainError(f"tuple must consist of {cls.value} points")
            distinct(self)
            self.checked = cls
        return self

    @cached_property
    def unit(self) -> QMatrix:
        return unit_diagonal(self.g)


def gram(points) -> QMatrix:
    """Gram matrix G with g_ij = <p_j, p_i> of a tuple of HVectors: the top
    block row [G1, G2] of adj(P)^H adj(J) adj(P), the adjoint of P* J P."""
    if isinstance(points, Lifts):
        adj = points.adj
    else:
        points = list(points)
        adj = columns(points).adjoint()
    m = adj.shape[1] // 2
    j = form_adjoint(points[0].model, points[0].n)
    top = adj[:, :m].conj().T @ (j @ adj)
    return QMatrix(top[:, :m], top[:, m:])


def triple_product(g: QMatrix) -> Quaternion:
    """<p1, p2, p3> = <p2,p1><p3,p2><p1,p3> = g_12 g_23 g_31 for the Gram
    matrix g of (p1, p2, p3) (lift dependent only up to
    lambda-bar (.) lambda)."""
    return g.entry(0, 1) * g.entry(1, 2) * g.entry(2, 0)


def triple_product_vanishes(g: QMatrix, points) -> bool:
    """True when |<p1, p2, p3>| <= PRODUCT_EPS (|p1| |p2| |p3|)^2."""
    scale = math.prod(p.norm() for p in points) ** 2
    return abs(triple_product(g)) <= PRODUCT_EPS * scale


def rescale_gram(g: QMatrix, lambdas) -> QMatrix:
    """Gram matrix of the rescaled tuple (p_1 lambda_1, ...):
    D* G D with D = diag(lambdas), that is conj(lambda_a) g_ab lambda_b
    entrywise."""
    d = QMatrix.from_entries([lambdas])
    return d.h * g * d


def unit_diagonal(g: QMatrix) -> QMatrix:
    """g_ab / sqrt(g_aa g_bb): the Gram matrix of the unit lifts of a tuple
    with positive diagonal, which rescaling the lifts moves by unit factors."""
    s = g.c1.diagonal().real ** -0.5
    return QMatrix(g.c1 * s[:, None] * s, g.c2 * s[:, None] * s)


def _check_square_hermitian(g: QMatrix, what: str) -> None:
    if g.shape[0] != g.shape[1]:
        raise UsageError(f"{what} needs a square matrix")
    if not g.is_hermitian(STRUCTURE_TOL):
        raise DomainError(f"{what} needs a Hermitian matrix")


def _paired_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian quaternion matrix from the ascending
    spectrum w of its complex adjoint, where each one appears twice:
    adjacent pairs averaged, then set to 0 when at most
    INERTIA_EPS * max|w|."""
    lam = 0.5 * (w[0::2] + w[1::2])
    if w.size:
        lam[np.abs(lam) <= INERTIA_EPS * max(-w[0], w[-1])] = 0.0
    return lam


def _signature(lam: np.ndarray) -> Inertia:
    npos, nneg = np.count_nonzero(lam > 0), np.count_nonzero(lam < 0)
    return Inertia(int(npos), int(nneg), lam.size - int(npos) - int(nneg))


def inertia(g: QMatrix) -> Inertia:
    """Signature (n_plus, n_minus, n_zero) of a Hermitian quaternion
    matrix.  Uses the complex adjoint, whose spectrum doubles each real
    eigenvalue."""
    _check_square_hermitian(g, "inertia")
    return _signature(_paired_eigenvalues(np.linalg.eigvalsh(g.adjoint())))


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


def realize(g: QMatrix, n: int, model: str = BALL) -> tuple[HVector, ...]:
    """Tuple of points in H^{n,1} whose Gram matrix is g (up to numerical
    error), or RealizationError naming the inertia obstruction."""
    _check_square_hermitian(g, "realize")
    m = g.shape[0]
    w, q, pair = g.eigh()
    lam = _paired_eigenvalues(w)
    iner = _signature(lam)
    check_admissible(iner, n)

    # g = Q diag(l) Q* with Q unitary, so P = F sqrt|l| Q* has P* J P = g
    # when F (ball model) puts the positive eigenvalues on distinct
    # coordinates 0..n_plus-1 and the negative one on coordinate n.
    f = np.zeros((n + 1, m))
    next_pos = 0
    for t, lt in enumerate(lam[pair]):
        if lt > 0:
            f[next_pos, t] = math.sqrt(lt)
            next_pos += 1
        elif lt < 0:
            f[n, t] = math.sqrt(-lt)
    p = QMatrix.real(f) @ q.h

    # Kernel directions of g leave columns that may coincide (or vanish,
    # for an all-zero row).  When the signature leaves room for a null
    # vector orthogonal to the realized span, adding distinct multiples
    # of it separates the points without changing any product.
    unit = math.sqrt(max(-w[0], w[-1]))
    col_norms = np.linalg.norm(p.modulus(), axis=0)
    null_available = iner.n_minus == 0 and iner.n_plus < n
    if np.any(col_norms <= PRODUCT_EPS * unit) and not null_available:
        raise RealizationError(
            "isotropic direction available for zero rows")
    if iner.n_zero > 0 and null_available:
        shift = unit * np.arange(1.0, m + 1.0)
        p.c1[iner.n_plus] += shift
        p.c1[n] += shift
    return tuple(to_model(z, model) for z in tuple_from_columns(p, BALL))


def realization_error(points, g: QMatrix) -> float:
    """Frobenius distance between gram(points) and the target g."""
    return (gram(points) - g).norm()


def span_dimension(points) -> int:
    """Quaternionic dimension of the right span of the lifted tuple."""
    adj = points.adj if isinstance(points, Lifts) else columns(points).adjoint()
    return int(adjoint_rank(adj))
