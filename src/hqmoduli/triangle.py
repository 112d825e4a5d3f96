"""Triangles of quaternionic lines in the quaternionic hyperbolic plane.

A triple of positive polar vectors p_1, p_2, p_3 in H^{2,1} determines a
triangle of quaternionic lines.  Its congruence class is encoded by the
unique normalized Gram matrix

    ( 1          r3         r2        )
    ( r3         1          r1 e^{ia} )
    ( r2         r1 e^{-ia} 1         )

with r_t >= 0 and sin(a) >= 0, summarized as an (r1, r2, r3; alpha)
parameter vector.  The triangle exists in H^{2,1} iff det G <= 0, with
det G = 1 - (r1^2 + r2^2 + r3^2) + 2 r1 r2 r3 cos(alpha).  The
functions of a triangle take its vertices, or one `Lifts` record of them.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError, InconsistencyError, UsageError
from .gram import (Inertia, Lifts, degenerate_span, inertia, realize,
                   realize_with_inertia, span_dimension, triple_product)
from .hform import BALL, HVector, PointClass
from .qmatrix import QMatrix
from .quat import Record
from .tol import DET_TOL


class TriangleParams(Record, fields="r1 r2 r3 alpha"):
    """Parameters (r1, r2, r3; alpha) of a normalized triangle Gram
    matrix; alpha lies in [0, pi] (sin alpha >= 0).  An immutable
    4-tuple."""

    __slots__ = ()

    def __new__(cls, r1: float, r2: float, r3: float, alpha: float):
        params = tuple.__new__(cls, (r1, r2, r3, alpha))
        if not all(map(math.isfinite, params)):
            raise UsageError("triangle parameters must be finite")
        if min(r1, r2, r3) < 0.0:
            raise UsageError("side parameters r_t must be nonnegative")
        if not 0.0 <= alpha <= math.pi:
            raise UsageError("alpha must lie in [0, pi]")
        return params

    def to_json(self) -> dict:
        return {"r1": self.r1, "r2": self.r2, "r3": self.r3,
                "alpha": self.alpha}


class TriangleClass(Enum):
    PARABOLIC111 = "Parabolic111"
    ELLIPTIC = "Elliptic"
    HYPERBOLIC_PLANAR = "HyperbolicPlanar"
    HYPERBOLIC_FULL = "HyperbolicFull"


# the class of each possible signature (n_plus, n_minus) of a triangle
_CLASS_OF = dict(zip([(1, 0), (2, 0), (1, 1), (2, 1)], TriangleClass))


def _vertices(points) -> Lifts:
    """The record of a triangle's three positive vertices, or of one
    record, checked as every positive tuple is."""
    lifts = Lifts(points[0] if len(points) == 1 else points)
    if len(lifts) != 3:
        raise UsageError("a triangle needs exactly 3 points")
    return lifts.validated(PointClass.POSITIVE, 3)


def normalize_triangle(*points) -> QMatrix:
    """The unique normalized Gram matrix of a positive triple: unit
    diagonal, g_12 and g_13 real nonnegative, g_23 = r1 e^{i alpha} with
    sin alpha >= 0, built from `triangle_params`."""
    return gram_from_params(triangle_params(*points))


def triangle_params(*points) -> TriangleParams:
    """(r1, r2, r3; alpha) read off the record: r_t = |u_ab| for the
    record's unit-diagonal Gram matrix u and the pair (a, b) opposite
    vertex t, and alpha = arccos(Re T / |T|) in [0, pi] for the triple
    product T, which is r1 r2 r3 e^{i alpha} for the normalized Gram
    matrix; rescaling the lifts multiplies T by a positive factor and
    conjugates it by a unit, which keeps the angle.  It is taken as
    atan2(|Im T|, Re T), which keeps its precision near 0 and pi.  alpha
    is recorded as 0 when the zero-product rule of the partition marks
    some product as zero: T then vanishes, and a unit factor on one
    vertex turns g_23 to any phase."""
    return _params(_vertices(points))


def _params(lifts: Lifts) -> TriangleParams:
    r = lifts.mod.tolist()
    alpha = 0.0
    if np.count_nonzero(lifts.nz) == lifts.nz.size:
        t = triple_product(lifts.g)
        alpha = math.atan2(math.hypot(t.a1, t.a2, t.a3), t.a0)
    return TriangleParams(r[1][2], r[0][2], r[0][1], alpha)


def gram_from_params(params: TriangleParams) -> QMatrix:
    """The normalized Gram matrix of the parameters, all of whose entries
    lie in C."""
    r1, r2, r3, a = params.as_tuple()
    g23 = complex(r1 * math.cos(a), r1 * math.sin(a))
    c1 = np.array([[1.0, r3, r2], [r3, 1.0, g23], [r2, g23.conjugate(), 1.0]])
    return QMatrix(c1, np.zeros((3, 3), dtype=complex))


def triangle_det(params: TriangleParams) -> float:
    """det G in closed form; DomainError when it overflows to inf or NaN."""
    r1, r2, r3, a = params.as_tuple()
    det = 1.0 - (r1 * r1 + r2 * r2 + r3 * r3) \
        + 2.0 * r1 * r2 * r3 * math.cos(a)
    if not math.isfinite(det):
        raise DomainError("det G overflows for these parameters")
    return det


def triangle_exists(params: TriangleParams) -> bool:
    """Existence of an (r1, r2, r3; alpha)-triangle in H^{2,1}:
    det G <= 0 (within DET_TOL) in closed form."""
    return triangle_det(params) <= DET_TOL


def realize_triangle(params: TriangleParams,
                     model: str = BALL) -> tuple[HVector, ...]:
    """Explicit positive triple in H^{2,1} with the given normalized
    Gram matrix; RealizationError when no such triangle exists."""
    return realize(gram_from_params(params), 2, model)


def realize_and_classify(params: TriangleParams, model: str = BALL
                         ) -> tuple[tuple[HVector, ...], TriangleClass]:
    """`realize_triangle` of the parameters and the class that the
    signature of G, read off the realization's one eigendecomposition,
    names.  The vertices coincide when two rows of G agree, which needs no
    distinctness check, but they must be positive: once some r_t is so
    large that the zeroed eigenvalues carry the unit diagonal, they are
    not, and the signature names no triangle."""
    points, iner = realize_with_inertia(gram_from_params(params), 2, model)
    if any(c != PointClass.POSITIVE for c in Lifts(points).classes):
        raise DomainError("tuple must consist of positive points")
    return points, _signature_class(iner)


def classify_triangle(*points) -> TriangleClass:
    """Class of the span of a positive triple from the signature of its
    unit-diagonal Gram matrix, which rescaling the vertices keeps:
    rank-one (all products of modulus 1, parabolic span), positive rank
    two (elliptic plane), or hyperbolic span of dimension 2 or 3."""
    return _classify(_vertices(points))


def _signature_class(iner: Inertia) -> TriangleClass:
    """The class that the inertia of a normalized triangle Gram matrix
    names: that of `gram_from_params`, or of the vertices' unit-diagonal
    Gram matrix."""
    sig = (iner.n_plus, iner.n_minus)
    if sig not in _CLASS_OF:
        raise DomainError(f"no triangle class has the signature {sig}")
    return _CLASS_OF[sig]


def _classify(lifts: Lifts) -> TriangleClass:
    iner = inertia(lifts.unit)
    cls = _signature_class(iner)
    rank_one = cls == TriangleClass.PARABOLIC111
    # without a negative eigenvalue the class agrees with the span rule of
    # the partition, asked in H^{2,1} only at rank one: a degenerate
    # subspace of H^{n,1} is proper.  Rank one on a nondegenerate span is
    # rounding, and rank two on a degenerate one is a parabolic triple
    asked = iner.n_minus == 0 and (rank_one or lifts[0].n >= 3)
    if not asked or rank_one == degenerate_span(
            lifts.mod, lambda: iner, lambda: span_dimension(lifts), lifts.nz):
        return cls
    error = InconsistencyError if rank_one else DomainError
    raise error(f"a triangle of signature {iner.n_plus, iner.n_minus} "
                f"whose span is {'not ' * rank_one}degenerate")
