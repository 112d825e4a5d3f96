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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InconsistencyError, UsageError
from .gram import (Lifts, inertia, realize, span_dimension, triple_product,
                   triple_product_vanishes)
from .hform import BALL, HVector, PointClass
from .positive import one_normalize
from .qmatrix import QMatrix
from .tol import DET_TOL, PRODUCT_EPS, UNIT_EPS


@dataclass(frozen=True)
class TriangleParams:
    """Parameters (r1, r2, r3; alpha) of a normalized triangle Gram
    matrix; alpha lies in [0, pi] (sin alpha >= 0)."""

    r1: float
    r2: float
    r3: float
    alpha: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in self.as_tuple()):
            raise UsageError("triangle parameters must be finite")
        if min(self.r1, self.r2, self.r3) < 0.0:
            raise UsageError("side parameters r_t must be nonnegative")
        if not 0.0 <= self.alpha <= math.pi:
            raise UsageError("alpha must lie in [0, pi]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r1, self.r2, self.r3, self.alpha)

    def to_json(self) -> dict:
        return {"r1": self.r1, "r2": self.r2, "r3": self.r3,
                "alpha": self.alpha}


class TriangleClass(Enum):
    PARABOLIC111 = "Parabolic111"
    ELLIPTIC = "Elliptic"
    HYPERBOLIC_PLANAR = "HyperbolicPlanar"
    HYPERBOLIC_FULL = "HyperbolicFull"


def _vertices(points) -> Lifts:
    """The record of a triangle's three positive vertices, or of one record."""
    lifts = Lifts(points[0] if len(points) == 1 else points)
    if len(lifts) != 3:
        raise UsageError("a triangle needs exactly 3 points")
    if any(c != PointClass.POSITIVE for c in lifts.classes):
        raise DomainError("triangle vertices must be positive vectors")
    return lifts


def triangle_angular_invariant(*points) -> float:
    """arccos(Re T / |T|) in [0, pi] for the triple product T of a
    positive triple; pi/2 when T vanishes.  Invariant under
    permutations, rescalings and isometries.  The pi/2 fallback for a
    vanishing T (some pairwise product vanishes) conflates it with
    Re T = 0."""
    lifts = _vertices(points)
    if triple_product_vanishes(lifts.g, lifts):
        return math.pi / 2.0
    t = triple_product(lifts.g)
    return math.acos(max(-1.0, min(1.0, t.re() / abs(t))))


def normalize_triangle(*points) -> QMatrix:
    """The unique normalized Gram matrix of a positive triple: unit
    diagonal, g_12 and g_13 real nonnegative, g_23 = r1 e^{i alpha} with
    sin alpha >= 0."""
    _, g = one_normalize(_vertices(points))
    return g


def triangle_params(*points) -> TriangleParams:
    """(r1, r2, r3; alpha) read off the normalized Gram matrix; alpha is
    recorded as 0 when g_23 = 0 leaves it undetermined."""
    g = normalize_triangle(*points)
    r3 = max(0.0, g.entry(0, 1).re())
    r2 = max(0.0, g.entry(0, 2).re())
    g23 = g.entry(1, 2)
    r1 = abs(g23)
    alpha = math.atan2(g23.a1, g23.a0) if r1 > PRODUCT_EPS else 0.0
    alpha = min(max(alpha, 0.0), math.pi)
    return TriangleParams(r1, r2, r3, alpha)


def gram_from_params(params: TriangleParams) -> QMatrix:
    """The normalized Gram matrix of the parameters, all of whose entries
    lie in C."""
    r1, r2, r3, a = params.as_tuple()
    g23 = complex(r1 * math.cos(a), r1 * math.sin(a))
    c1 = np.array([[1.0, r3, r2], [r3, 1.0, g23], [r2, g23.conjugate(), 1.0]])
    return QMatrix(c1, np.zeros((3, 3), dtype=complex))


def triangle_det(params: TriangleParams) -> float:
    r1, r2, r3, a = params.as_tuple()
    return 1.0 - (r1 * r1 + r2 * r2 + r3 * r3) \
        + 2.0 * r1 * r2 * r3 * math.cos(a)


def triangle_exists(params: TriangleParams) -> bool:
    """Existence of an (r1, r2, r3; alpha)-triangle in H^{2,1}:
    det G <= 0 (within DET_TOL) in closed form."""
    return triangle_det(params) <= DET_TOL


def realize_triangle(params: TriangleParams,
                     model: str = BALL) -> tuple[HVector, ...]:
    """Explicit positive triple in H^{2,1} with the given normalized
    Gram matrix; RealizationError when no such triangle exists."""
    return realize(gram_from_params(params), 2, model)


def classify_triangle(*points) -> TriangleClass:
    """Class of the span of a positive triple from the signature of its
    unit-diagonal Gram matrix, which rescaling the vertices keeps:
    rank-one (all products of modulus 1, parabolic span), positive rank
    two (elliptic plane), or hyperbolic span of dimension 2 or 3."""
    lifts = _vertices(points)
    iner = inertia(lifts.unit)
    sig = (iner.n_plus, iner.n_minus)
    if sig == (1, 0):
        params = triangle_params(lifts)
        if max(abs(params.r1 - 1), abs(params.r2 - 1), abs(params.r3 - 1),
               abs(params.alpha)) > UNIT_EPS:
            raise InconsistencyError(
                "rank-one triangle Gram is not of type (1,1,1;0)")
        if span_dimension(lifts) != 2:
            raise InconsistencyError(
                "parabolic triangle span has unexpected dimension")
        return TriangleClass.PARABOLIC111
    if sig == (2, 0):
        return TriangleClass.ELLIPTIC
    if sig == (1, 1):
        return TriangleClass.HYPERBOLIC_PLANAR
    if sig == (2, 1):
        return TriangleClass.HYPERBOLIC_FULL
    raise InconsistencyError(f"impossible triangle signature {sig}")
