"""Vectors in H^{n,1}, the Hermitian form in ball and Siegel models,
point classification, isometries, and the geometry of polar vectors.

The Hermitian product is <z, w> = w* J z with

    J_ball   = diag(1, ..., 1, -1)
    J_siegel = antidiag corners 1, identity in the middle block.

Scalars act on vectors from the right, so <z a, w b> = conj(b) <z, w> a.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .errors import DegenerateInputError, DomainError, UsageError
from .qmatrix import QMatrix
from .quat import Quaternion, Record
from .tol import (COORD_TOL, INERTIA_EPS, ISOMETRY_TOL, NULL_EPS, PRODUCT_EPS,
                  STRUCTURE_TOL)

BALL = "ball"
SIEGEL = "siegel"


class PointClass(enum.Enum):
    NEGATIVE = "negative"
    NULL = "null"
    POSITIVE = "positive"


def check_dimension(n: int) -> None:
    """H^{n,1} needs n >= 1: at n = 0 the Siegel form [[1]] lacks the
    ball form's signature (0, 1), so the models disagree on every class."""
    if n < 1:
        raise UsageError(f"H^{{n,1}} needs n >= 1, got {n}")


@functools.lru_cache(maxsize=64)
def form_matrix(model: str, n: int) -> QMatrix:
    """The (n+1) x (n+1) form matrix J for the given model.

    Cached per (model, n) and shared by every caller, so its arrays are
    read-only."""
    if model not in (BALL, SIEGEL):
        raise UsageError(f"unknown model {model!r}")
    check_dimension(n)
    m = np.eye(n + 1)
    if model == BALL:
        m[n, n] = -1.0
    else:
        m[0, 0] = m[n, n] = 0.0
        m[0, n] = m[n, 0] = 1.0
    j = QMatrix.real(m)
    j.c1.flags.writeable = j.c2.flags.writeable = False
    return j


@functools.lru_cache(maxsize=64)
def form_adjoint(model: str, n: int) -> np.ndarray:
    """The complex adjoint of `form_matrix(model, n)`, cached and read-only."""
    a = form_matrix(model, n).adjoint()
    a.flags.writeable = False
    return a


class _Tagged:
    """A quaternion matrix `qm` tagged with the model its form lives in:
    immutable, and equal only to itself."""

    __slots__ = ("qm", "model")

    def __init__(self, qm: QMatrix, model: str = BALL):
        object.__setattr__(self, "qm", qm)
        object.__setattr__(self, "model", model)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.qm, self.model)

    @property
    def n(self) -> int:
        return self.qm.shape[0] - 1


class HVector(_Tagged):
    """Column vector in H^{n,1} tagged with the model its form lives in."""

    __slots__ = ()

    def __init__(self, qm: QMatrix, model: str = BALL):
        if qm.shape[1] != 1:
            raise UsageError("HVector must be a single column")
        if model not in (BALL, SIEGEL):
            raise UsageError(f"unknown model {model!r}")
        check_dimension(qm.shape[0] - 1)
        super().__init__(qm, model)

    @staticmethod
    def from_entries(entries, model: str = BALL) -> "HVector":
        return HVector(QMatrix.from_entries([e] for e in entries), model)

    def entries(self) -> list[Quaternion]:
        return [self.qm.entry(i, 0) for i in range(self.qm.shape[0])]

    def norm(self) -> float:
        return self.qm.norm()

    def rescale(self, lam) -> "HVector":
        return HVector(self.qm.right_scalar(lam), self.model)

    def scaled(self, x: float) -> "HVector":
        return HVector(self.qm.scale(x), self.model)

    def __add__(self, other: "HVector") -> "HVector":
        _check_compatible(self, other)
        return HVector(self.qm + other.qm, self.model)

    def __sub__(self, other: "HVector") -> "HVector":
        _check_compatible(self, other)
        return HVector(self.qm - other.qm, self.model)

    def to_json(self) -> dict:
        return {"model": self.model,
                "entries": [q.to_json() for q in self.entries()]}

    @staticmethod
    def from_json(data) -> "HVector":
        return HVector.from_entries(
            [Quaternion.from_json(e) for e in data["entries"]],
            data.get("model", BALL))


class Isometry(_Tagged):
    """Element of Sp(n,1): quaternion matrix with g* J g = J."""

    __slots__ = ()

    def apply(self, z: HVector) -> HVector:
        if z.model != self.model:
            raise UsageError("isometry and vector live in different models")
        return HVector(self.qm @ z.qm, self.model)

    def to_json(self) -> dict:
        return {"model": self.model,
                "matrix": [[q.to_json() for q in row]
                           for row in self.qm.to_entries()]}


def _check_compatible(z: HVector, w: HVector) -> None:
    if z.model != w.model or z.qm.shape != w.qm.shape:
        raise UsageError("vectors differ in model or dimension")


def herm(z: HVector, w: HVector) -> Quaternion:
    """Hermitian product <z, w> = w* J z."""
    _check_compatible(z, w)
    j = form_matrix(z.model, z.n)
    return (w.qm.h @ (j @ z.qm)).entry(0, 0)


def self_product(z: HVector) -> float:
    return herm(z, z).re()


def point_class(s: float, norm: float, eps: float = NULL_EPS) -> PointClass:
    """Class of a lift with self-product s and Euclidean norm `norm`: null
    when |s| <= eps * norm^2."""
    if norm == 0.0:
        raise DomainError("cannot classify the zero vector")
    if abs(s) <= eps * norm ** 2:
        return PointClass.NULL
    return PointClass.NEGATIVE if s < 0 else PointClass.POSITIVE


def classify(z: HVector, eps: float = NULL_EPS) -> PointClass:
    return point_class(self_product(z), z.norm(), eps)


def columns(tup) -> QMatrix:
    """Stack a tuple of HVectors (same model) into an (n+1) x m matrix."""
    tup = list(tup)
    if not tup:
        raise UsageError("empty tuple")
    model, rows = tup[0].model, tup[0].qm.shape[0]
    c1, c2 = [], []
    for z in tup:
        q = z.qm
        if z.model != model or q.shape[0] != rows:
            raise UsageError("tuple mixes models or dimensions")
        c1.append(q.c1)
        c2.append(q.c2)
    return QMatrix(np.concatenate(c1, axis=1), np.concatenate(c2, axis=1))


def tuple_from_columns(qm: QMatrix, model: str) -> tuple[HVector, ...]:
    """The columns of qm as HVectors, each on a column slice of qm, wrapped
    without the checks of QMatrix and HVector: qm has passed them."""
    if model not in (BALL, SIEGEL):
        raise UsageError(f"unknown model {model!r}")
    out = []
    for j in range(qm.shape[1]):
        col, z = object.__new__(QMatrix), object.__new__(HVector)
        col.c1, col.c2 = qm.c1[:, j:j + 1], qm.c2[:, j:j + 1]
        object.__setattr__(z, "qm", col)  # HVector is immutable
        object.__setattr__(z, "model", model)
        out.append(z)
    return tuple(out)


# ---------------------------------------------------------------------
# Cayley transform between the two models
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def cayley_matrix(n: int) -> QMatrix:
    """The Cayley matrix C: real symmetric with C^2 = I and
    C* J_siegel C = J_ball, so z -> C z carries either model to the other
    preserving products.  Cached per n like `form_matrix`, so read-only."""
    check_dimension(n)
    a = 1.0 / math.sqrt(2.0)
    m = np.eye(n + 1)
    m[0, 0] = m[0, n] = m[n, 0] = a
    m[n, n] = -a
    c = QMatrix.real(m)
    c.c1.flags.writeable = c.c2.flags.writeable = False
    return c


def to_model(z: HVector, model: str) -> HVector:
    """z in the given model: z itself, or C z for the Cayley matrix C."""
    if z.model == model:
        return z
    return HVector(cayley_matrix(z.n) @ z.qm, model)


def cayley_isometry(g: Isometry) -> Isometry:
    """Conjugate a ball-model isometry to the Siegel model."""
    if g.model != BALL:
        raise UsageError("cayley_isometry expects a ball-model isometry")
    c = cayley_matrix(g.n)
    return Isometry(c @ g.qm @ c, SIEGEL)


# ---------------------------------------------------------------------
# Isometry checking and J-orthonormal frames
# ---------------------------------------------------------------------

def verify_isometry(g: Isometry) -> float:
    """Frobenius deviation of g* J g from J."""
    j = form_matrix(g.model, g.n)
    return ((g.qm.h @ (j @ g.qm)) - j).norm()


def _project_against(w: QMatrix, frame: list[tuple[QMatrix, float]],
                     j: QMatrix) -> QMatrix:
    """Remove the components of w along J-orthonormal columns with
    self-products +-1."""
    for v, sign in frame:
        coeff = (v.h @ (j @ w)).entry(0, 0)  # <w, v>
        w = w - v.right_scalar(coeff * sign)
    return w


def _self(v: QMatrix, j: QMatrix) -> float:
    return (v.h @ (j @ v)).entry(0, 0).re()


def _complete_frame(c: QMatrix, j: QMatrix) -> QMatrix:
    """J-orthonormal columns spanning the J-orthogonal complement of the
    independent columns of c, whose span must be nondegenerate: the
    positive columns first, then the negative one if there is one.

    The complement is the kernel of (Jc)*, that is the bottom
    (dim - k)-dimensional eigenspace V of (Jc)(Jc)*.  Its dimension is
    known, so taking it needs no threshold.  The form restricted to it,
    V* J V = U diag(mu) U*, gives the columns V U |mu|^(-1/2), those of U
    reversed, so that mu descends and no rounding in mu reorders ties."""
    dim, k = c.shape
    norms = np.linalg.norm(c.modulus(), axis=0)
    jc = j @ QMatrix(c.c1 / norms, c.c2 / norms)
    v = (jc @ jc.h).eigh()[1].cols(range(dim - k))
    mu, u = (v.h @ (j @ v)).eigh()
    # V has orthonormal columns, so mu is the form on unit vectors: the
    # relative test that point_class applies to <z, z> / |z|^2.
    if np.count_nonzero(np.abs(mu) <= NULL_EPS):
        raise DomainError("the span has a null direction in its complement")
    f = v @ u.cols(range(dim - k - 1, -1, -1))
    scale = 1.0 / np.sqrt(np.abs(mu[::-1]))
    return QMatrix(f.c1 * scale, f.c2 * scale)


def random_isometry(n: int, seed: int, model: str = BALL) -> Isometry:
    """Reproducible random element of Sp(n,1) via J-Gram-Schmidt on random
    quaternion columns (bounded retries on degenerate draws)."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = np.random.default_rng(seed)
    j = form_matrix(BALL, n)
    for _ in range(8):
        try:
            # negative direction: interior point (q, 1), |q| < 1
            raw = rng.standard_normal((n, 4))
            raw /= 2.0 * max(1.0, float(np.linalg.norm(raw)))
            neg = QMatrix.zeros(n + 1, 1)
            neg.c1[:n, 0], neg.c2[:n, 0] = raw.view(complex).T
            neg.c1[n, 0] = 1.0
            s = _self(neg, j)
            if s >= -1e-6:
                raise DegenerateInputError("draw not negative")
            frame = [(neg.scale(1.0 / math.sqrt(-s)), -1.0)]
            for _col in range(n):
                w = rng.standard_normal((n + 1, 4))
                cand = QMatrix(w[:, 0:1] + 1j * w[:, 1:2],
                               w[:, 2:3] + 1j * w[:, 3:4])
                cand = _project_against(cand, frame, j)
                val = _self(cand, j)
                if val <= 1e-8:
                    raise DegenerateInputError("near-singular draw")
                frame.append((cand.scale(1.0 / math.sqrt(val)), 1.0))
            frame.sort(key=lambda t: -t[1])
            iso = Isometry(QMatrix.from_columns(v for v, _sign in frame), BALL)
            if verify_isometry(iso) > ISOMETRY_TOL * (n + 1):
                raise DegenerateInputError("orthogonalization lost accuracy")
            return iso if model == BALL else cayley_isometry(iso)
        except DegenerateInputError:
            continue
    raise DomainError("random_isometry: repeated degenerate draws")


def map_orthonormal_frames(p, q) -> Isometry:
    """Isometry g with g p_i = q_i for J-orthonormal positive tuples
    (length m <= n), each read off one `Lifts` record of its ball lifts."""
    from .gram import Lifts
    p, q = list(p), list(q)
    if len(p) != len(q) or not p:
        raise UsageError("frames must be nonempty and of equal length")
    model, n = p[0].model, p[0].n
    if len(p) > n:
        raise DomainError("frame longer than n")
    heads = []
    for x in (p, q):
        lifts = Lifts([to_model(z, BALL) for z in x])
        dev = (lifts.g - QMatrix.eye(len(p))).modulus()
        if np.count_nonzero(
                dev > STRUCTURE_TOL * np.outer(lifts.norms, lifts.norms)):
            raise DomainError("input tuples are not orthonormal frames")
        heads.append(lifts.p)
    return _frames_isometry(*heads, form_matrix(BALL, n), model)


def _frames_isometry(hp: QMatrix, hq: QMatrix, j: QMatrix,
                     model: str) -> Isometry:
    """Isometry g = F_q F_p^-1 carrying the ball-model head columns hp to
    hq, each head completed to a frame, conjugated to `model`."""
    fp, fq = (QMatrix.from_columns([h, _complete_frame(h, j)])
              for h in (hp, hq))
    g = Isometry(fq @ fp.inv(), BALL)
    return cayley_isometry(g) if model == SIEGEL else g


# ---------------------------------------------------------------------
# Null-vector machinery
# ---------------------------------------------------------------------

def _null_partner(z: QMatrix, j: QMatrix, frame=()) -> QMatrix:
    """Null w with <z, w> = 1 for null z, inside the J-orthogonal
    complement of the J-orthonormal columns of `frame` (each J-orthogonal
    to z).  J^2 = I in both models, so <z, Jz> = |z|^2 and Jz / |z|^2 has
    <z, .> = 1; projecting it off the frame keeps that product, and
    subtracting z <w, w> / 2 makes it null."""
    w = _project_against((j @ z).scale(1.0 / z.norm() ** 2), frame, j)
    return w - z.scale(_self(w, j) / 2.0)


def orthogonal_complement_basis(z: HVector) -> tuple[HVector, ...]:
    """Structured basis of z^perp: see the trichotomy on the sign of
    <z, z>.  For nonnull z it is J-orthonormal, the positives first, then
    (for positive z) the negative.  Null z is returned as the first basis
    vector of its own complement, followed by n-1 J-orthonormal positives
    J-orthogonal to z and to its null partner."""
    j = form_matrix(z.model, z.n)
    if classify(z) != PointClass.NULL:
        return tuple_from_columns(_complete_frame(z.qm, j), z.model)
    pair = QMatrix.from_columns([z.qm, _null_partner(z.qm, j)])
    return (z,) + tuple_from_columns(_complete_frame(pair, j), z.model)


# ---------------------------------------------------------------------
# Distances, angles and the m = 2 moduli invariant
# ---------------------------------------------------------------------

class PairConfiguration(Record, fields="kind angle distance"):
    """The kind of a pair of positive points, "intersecting", "asymptotic"
    or "ultraparallel", with the angle of an intersecting pair and the
    distance of an ultraparallel one: an immutable 3-tuple."""

    __slots__ = ()

    def __new__(cls, kind: str, angle: float | None = None,
                distance: float | None = None):
        return tuple.__new__(cls, (kind, angle, distance))

    @staticmethod
    def from_t(t: float) -> "PairConfiguration":
        """The trichotomy of a pair with t = |<p_1, p_2>| for unit lifts;
        asymptotic is the zero eigenvalue 1 - t of [[1, t], [t, 1]] in `inertia`."""
        if abs(1.0 - t) <= INERTIA_EPS * (1.0 + t):
            return PairConfiguration("asymptotic")
        if t < 1.0:
            return PairConfiguration("intersecting", angle=math.acos(t))
        return PairConfiguration("ultraparallel", distance=2.0 * math.acosh(t))


def _pair(p1: HVector, p2: HVector):
    """The `Lifts` record of two distinct positive points, checked as every
    positive tuple is, and t = |u_12| of its unit-diagonal Gram matrix u;
    `gram` imports this module, so it is imported here."""
    from .gram import Lifts
    lifts = Lifts([p1, p2]).validated(PointClass.POSITIVE, 2)
    return lifts, float(lifts.unit.modulus()[0, 1])


def pair_moduli(p1: HVector, p2: HVector) -> float:
    """The complete congruence invariant t = |<p_1, p_2>| >= 0 of the unit
    lifts of a pair of positive points with distinct projections."""
    return _pair(p1, p2)[1]


def pair_configuration(p1: HVector, p2: HVector) -> PairConfiguration:
    return PairConfiguration.from_t(pair_moduli(p1, p2))


def pair_isometry(p1: HVector, p2: HVector, q1: HVector,
                  q2: HVector) -> Isometry:
    """Explicit isometry carrying the positive pair (p1, p2) to (q1, q2)
    projectively; exists iff their t-invariants agree.  The points of
    each pair must be distinct, as for `pair_moduli`."""
    from .gram import align
    (lp, tp), (lq, tq) = (_pair(to_model(x, BALL), to_model(y, BALL))
                          for x, y in ((p1, p2), (q1, q2)))
    if abs(tp - tq) > COORD_TOL * (1.0 + tp + tq):
        raise DomainError("pairs have different moduli invariants")
    j = form_matrix(BALL, p1.n)
    t = 0.5 * (tp + tq)

    def head(lifts, s: float) -> QMatrix:
        """(x1, u, ...) for the unit lifts x1, x2 of the pair, aligned so
        that <x1, x2> = s is real nonnegative: u = x2 - x1 and its null
        partner for an asymptotic pair, else u = x2 - x1 t, unit."""
        x1, x2 = map(HVector.rescale, lifts, align(
            lifts, [(0, 1)] if s > PRODUCT_EPS else []))
        if PairConfiguration.from_t(t).kind == "asymptotic":
            u = (x2 - x1).qm
            return QMatrix.from_columns(
                [x1.qm, u, _null_partner(u, j, [(x1.qm, 1.0)])])
        u = (x2 - x1.rescale(t)).qm
        return QMatrix.from_columns(
            [x1.qm, u.scale(1.0 / math.sqrt(abs(_self(u, j))))])

    return _frames_isometry(head(lp, tp), head(lq, tq), j, p1.model)


def projective_distance(a: HVector, b: HVector) -> float:
    """Euclidean distance between the best right-scalar alignments of the
    unit lifts; zero iff a and b define the same projective point."""
    _check_compatible(a, b)
    an = a.qm.scale(1.0 / a.qm.norm())
    bn = b.qm.scale(1.0 / b.qm.norm())
    lam = (bn.h @ an).entry(0, 0)  # Euclidean best-fit right scalar
    return (an - bn.right_scalar(lam)).norm()
