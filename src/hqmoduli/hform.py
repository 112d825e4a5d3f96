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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, UsageError
from .qmatrix import QMatrix
from .quat import Quaternion, quat

BALL = "ball"
SIEGEL = "siegel"

NULL_EPS = 1e-9          # relative tolerance for <z,z> = 0
ASYMPTOTIC_EPS = 1e-8    # |t - 1| threshold in the pair trichotomy
ISOMETRY_TOL = 1e-9      # per-dimension Frobenius tolerance for g*Jg = J


class PointClass(enum.Enum):
    NEGATIVE = "negative"
    NULL = "null"
    POSITIVE = "positive"


@functools.lru_cache(maxsize=64)
def form_matrix(model: str, n: int) -> QMatrix:
    """The (n+1) x (n+1) form matrix J for the given model.

    Cached per (model, n) and shared by every caller, so its arrays are
    read-only."""
    if model == BALL:
        d = np.ones(n + 1)
        d[n] = -1.0
        j = QMatrix.real(np.diag(d))
    elif model == SIEGEL:
        m = np.zeros((n + 1, n + 1))
        m[0, n] = 1.0
        m[n, 0] = 1.0
        for i in range(1, n):
            m[i, i] = 1.0
        j = QMatrix.real(m)
    else:
        raise UsageError(f"unknown model {model!r}")
    j.c1.flags.writeable = False
    j.c2.flags.writeable = False
    return j


@dataclass(frozen=True)
class HVector:
    """Column vector in H^{n,1} tagged with the model its form lives in."""

    qm: QMatrix
    model: str = BALL

    def __post_init__(self):
        if self.qm.shape[1] != 1:
            raise UsageError("HVector must be a single column")
        if self.model not in (BALL, SIEGEL):
            raise UsageError(f"unknown model {self.model!r}")

    @staticmethod
    def from_entries(entries, model: str = BALL) -> "HVector":
        return HVector(QMatrix.column([quat(e) for e in entries]), model)

    @property
    def n(self) -> int:
        return self.qm.shape[0] - 1

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


@dataclass(frozen=True)
class Isometry:
    """Element of Sp(n,1): quaternion matrix with g* J g = J."""

    qm: QMatrix
    model: str = BALL

    @property
    def n(self) -> int:
        return self.qm.shape[0] - 1

    def apply(self, z: HVector) -> HVector:
        if z.model != self.model:
            raise UsageError("isometry and vector live in different models")
        return HVector(self.qm @ z.qm, self.model)

    def compose(self, other: "Isometry") -> "Isometry":
        if self.model != other.model:
            raise UsageError("model mismatch in composition")
        return Isometry(self.qm @ other.qm, self.model)

    def inverse(self) -> "Isometry":
        return Isometry(self.qm.inv(), self.model)

    def to_json(self) -> dict:
        return {"model": self.model,
                "matrix": [[q.to_json() for q in row]
                           for row in self.qm.to_entries()]}

    @staticmethod
    def from_json(data) -> "Isometry":
        rows = [[Quaternion.from_json(e) for e in row] for row in data["matrix"]]
        return Isometry(QMatrix.from_entries(rows), data.get("model", BALL))


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
    for z in tup:
        if z.model != model or z.qm.shape[0] != rows:
            raise UsageError("tuple mixes models or dimensions")
    return QMatrix.from_columns(z.qm for z in tup)


def tuple_from_columns(qm: QMatrix, model: str) -> tuple[HVector, ...]:
    return tuple(HVector(qm.col(j), model) for j in range(qm.shape[1]))


# ---------------------------------------------------------------------
# Cayley transform between the two models
# ---------------------------------------------------------------------

def _cayley_matrix(n: int) -> QMatrix:
    # C is real symmetric with C^2 = I and C* J_s C = J_b.
    a = 1.0 / math.sqrt(2.0)
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = a
    m[0, n] = a
    m[n, 0] = a
    m[n, n] = -a
    for i in range(1, n):
        m[i, i] = 1.0
    return QMatrix.real(m)


def cayley(z: HVector) -> HVector:
    """Map a ball-model vector to the Siegel model preserving products."""
    if z.model != BALL:
        raise UsageError("cayley expects a ball-model vector")
    return HVector(_cayley_matrix(z.n) @ z.qm, SIEGEL)


def cayley_inverse(z: HVector) -> HVector:
    if z.model != SIEGEL:
        raise UsageError("cayley_inverse expects a Siegel-model vector")
    return HVector(_cayley_matrix(z.n) @ z.qm, BALL)


def to_model(z: HVector, model: str) -> HVector:
    if z.model == model:
        return z
    return cayley(z) if model == SIEGEL else cayley_inverse(z)


def cayley_isometry(g: Isometry) -> Isometry:
    """Conjugate a ball-model isometry to the Siegel model."""
    if g.model != BALL:
        raise UsageError("cayley_isometry expects a ball-model isometry")
    c = _cayley_matrix(g.n)
    return Isometry(c @ g.qm @ c, SIEGEL)


# ---------------------------------------------------------------------
# Isometry checking and construction
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


def _standard_seeds(dim: int) -> list[QMatrix]:
    seeds = []
    for t in range(dim):
        c = QMatrix.zeros(dim, 1)
        c.c1[t, 0] = 1.0
        seeds.append(c)
    return seeds


def _extended_seeds(dim: int) -> list[QMatrix]:
    """Basis seeds plus pairwise sums and differences.  In an indefinite
    complement the basis projections alone can all land outside the
    positive cone; a two-term combination always reaches it."""
    seeds = _standard_seeds(dim)
    for a in range(dim):
        for b in range(a + 1, dim):
            for sign in (1.0, -1.0):
                c = QMatrix.zeros(dim, 1)
                c.c1[a, 0] = 1.0
                c.c1[b, 0] = sign
                seeds.append(c)
    return seeds


def _positive_combination(seeds, frame, j):
    """Positive vector w_a lambda + w_b built from two projected seeds
    whose span is indefinite.  <w_a lam + w_b, .> = a|lam|^2 + b
    + 2 Re(u lam) with u = <w_a, w_b>; taking lam along conj(u) this is a
    real quadratic maximized at t = -|u|/a, positive when |u|^2 > ab."""
    ws = [_project_against(s, frame, j) for s in seeds]
    pairs = [(w, _self(w, j)) for w in ws]
    for ia in range(len(pairs)):
        wa, a = pairs[ia]
        if a >= -1e-12:
            continue
        for ib in range(len(pairs)):
            if ib == ia:
                continue
            wb, b = pairs[ib]
            u = (wb.h @ (j @ wa)).entry(0, 0)  # <w_a, w_b>
            if abs(u) ** 2 <= a * b + 1e-10:
                continue
            t = -abs(u) / a
            lam = u.conj() * (t / abs(u))
            w = wa.right_scalar(lam) + wb
            val = _self(w, j)
            if val > 1e-10:
                return w, val
    return None, 0.0


def _extend_frame(frame: list[tuple[QMatrix, float]], n: int,
                  j: QMatrix) -> list[tuple[QMatrix, float]]:
    """Extend J-orthonormal columns to a full Sp(n,1)-frame: n positive
    columns then one negative column."""
    frame = list(frame)
    have_pos = sum(1 for _, s in frame if s > 0)
    have_neg = sum(1 for _, s in frame if s < 0)
    if have_neg > 1:
        raise DomainError("frame already has two negative directions")
    seeds = _extended_seeds(n + 1)

    def best_projection(sign):
        """Projected seed w maximizing sign * <w, w> > 0."""
        best, best_val = None, 0.0
        for s in seeds:
            w = _project_against(s, frame, j)
            val = sign * _self(w, j)
            if val > best_val:
                best, best_val = w, val
        return best, best_val

    while have_pos < n:
        best, best_val = best_projection(1.0)
        if best is None:
            best, best_val = _positive_combination(seeds, frame, j)
        if best is None:
            raise DomainError("cannot extend frame with a positive vector")
        frame.append((best.scale(1.0 / math.sqrt(best_val)), 1.0))
        have_pos += 1

    if have_neg == 0:
        best, best_val = best_projection(-1.0)
        if best is None:
            raise DomainError("cannot extend frame with a negative vector")
        frame.append((best.scale(1.0 / math.sqrt(best_val)), -1.0))

    # order: positives first, negative last
    frame.sort(key=lambda t: -t[1])
    return frame


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
            for i in range(n):
                neg.c1[i, 0] = complex(raw[i, 0], raw[i, 1])
                neg.c2[i, 0] = complex(raw[i, 2], raw[i, 3])
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
    (length m <= n)."""
    p, q = list(p), list(q)
    if len(p) != len(q) or not p:
        raise UsageError("frames must be nonempty and of equal length")
    model, n = p[0].model, p[0].n
    if len(p) > n:
        raise DomainError("frame longer than n")
    pb = [to_model(z, BALL) for z in p]
    qb = [to_model(z, BALL) for z in q]
    j = form_matrix(BALL, n)
    for tup in (pb, qb):
        for a in range(len(tup)):
            for b in range(len(tup)):
                want = 1.0 if a == b else 0.0
                got = herm(tup[a], tup[b])
                if abs(got - quat(want)) > 1e-8 * (1 + tup[a].norm() * tup[b].norm()):
                    raise DomainError("input tuples are not orthonormal frames")
    fp = _extend_frame([(z.qm, 1.0) for z in pb], n, j)
    fq = _extend_frame([(z.qm, 1.0) for z in qb], n, j)
    # keep the given columns in their original order at the front
    gp = QMatrix.from_columns([z.qm for z in pb] + [v for v, s in fp[len(pb):]])
    gq = QMatrix.from_columns([z.qm for z in qb] + [v for v, s in fq[len(qb):]])
    g = Isometry(gq @ gp.inv(), BALL)
    if model == SIEGEL:
        g = cayley_isometry(g)
    return g


# ---------------------------------------------------------------------
# Null-vector machinery
# ---------------------------------------------------------------------

def _null_partner(z: QMatrix, j: QMatrix, frame=()) -> QMatrix:
    """Null w with <z, w> = 1 for null z, inside the J-orthogonal
    complement of the J-orthonormal columns of `frame`."""
    best, best_val = None, 0.0
    for s in _standard_seeds(z.shape[0]):
        cand = _project_against(s, frame, j)
        a0 = (cand.h @ (j @ z)).entry(0, 0)  # <z, cand>
        if abs(a0) > best_val:
            best, best_val = cand, abs(a0)
    if best is None or best_val < 1e-12:
        raise DomainError("no partner direction for the null vector")
    a0 = (best.h @ (j @ z)).entry(0, 0)
    w1 = best.right_scalar(a0.conj().inverse())
    return w1 - z.scale(_self(w1, j) / 2.0)


def null_partner(z: HVector) -> HVector:
    """For null z, a null w with <z, w> = 1 (and <w, w> = 0)."""
    if classify(z) != PointClass.NULL:
        raise DomainError("null_partner needs a null vector")
    return HVector(_null_partner(z.qm, form_matrix(z.model, z.n)), z.model)


def project_out_null_pair(v: QMatrix, z: QMatrix, w: QMatrix,
                          j: QMatrix) -> QMatrix:
    """Project v into {z, w}^perp where z, w are a null pair with
    <z, w> = 1."""
    b = (v.h @ (j @ z)).entry(0, 0).conj()   # conj(<z, v>)
    a = (v.h @ (j @ w)).entry(0, 0).conj()   # conj(<w, v>)
    return v - z.right_scalar(a) - w.right_scalar(b)


def _null_pair_completion(z: QMatrix, w: QMatrix, frame, count: int,
                          j: QMatrix) -> list[QMatrix]:
    """`count` J-orthonormal positive columns orthogonal to the null pair
    (z, w) and to the J-orthonormal columns of `frame`, projected from the
    standard basis in order."""
    frame, out = list(frame), []
    for s in _standard_seeds(z.shape[0]):
        if len(out) == count:
            break
        cand = _project_against(project_out_null_pair(s, z, w, j), frame, j)
        val = _self(cand, j)
        if val > 1e-8:
            col = cand.scale(1.0 / math.sqrt(val))
            frame.append((col, 1.0))
            out.append(col)
    if len(out) < count:
        raise DomainError("failed to complete a null frame")
    return out


def _null_frame_columns(z: HVector) -> list[QMatrix]:
    """Columns (z, u_2..u_n, w) with u_t J-orthonormal positive and w the
    null partner of z."""
    j = form_matrix(z.model, z.n)
    w = null_partner(z).qm
    return [z.qm] + _null_pair_completion(z.qm, w, (), z.n - 1, j) + [w]


def orthogonal_complement_basis(z: HVector) -> tuple[HVector, ...]:
    """Structured basis of z^perp: see the trichotomy on the sign of
    <z, z>.  Null z is returned as the first basis vector of its own
    complement."""
    cls = classify(z)
    if cls != PointClass.NULL:
        sign = 1.0 if cls == PointClass.POSITIVE else -1.0
        zn = z.qm.scale(1.0 / math.sqrt(sign * self_product(z)))
        frame = _extend_frame([(zn, sign)], z.n, form_matrix(z.model, z.n))
        # drop z itself: the positives, then (for positive z) the negative
        return tuple(HVector(v, z.model) for v, _sign in frame if v is not zn)
    # null case: z itself plus n-1 positives in {z, w}^perp
    return tuple(HVector(v, z.model) for v in _null_frame_columns(z)[:-1])


def null_frame(z: HVector) -> QMatrix:
    """Frame f = (z, u_2..u_n, w) with f* J_s f = J_s, for Siegel null z.

    f^{-1} is then an isometry sending z to the standard point at
    infinity (1, 0, ..., 0)."""
    if z.model != SIEGEL:
        raise UsageError("null_frame works in the Siegel model")
    return QMatrix.from_columns(_null_frame_columns(z))


def isometry_sending_null_to_infinity(z: HVector) -> Isometry:
    """Siegel isometry g with g z proportional to z_infinity = e_1."""
    f = null_frame(z)
    return Isometry(f.inv(), SIEGEL)


# ---------------------------------------------------------------------
# Distances, angles and the m = 2 moduli invariant
# ---------------------------------------------------------------------

def dist_point_to_hyperplane(z: HVector, p: HVector) -> float:
    """Distance from a negative point z to the hyperplane polar to the
    positive vector p."""
    if classify(z) != PointClass.NEGATIVE:
        raise DomainError("z must be a negative point")
    if classify(p) != PointClass.POSITIVE:
        raise DomainError("p must be a positive vector")
    zp = herm(z, p)
    cosh2 = 1.0 - (zp * zp.conj()).re() / (self_product(z) * self_product(p))
    cosh2 = max(cosh2, 1.0)
    return 2.0 * math.acosh(math.sqrt(cosh2))


@dataclass(frozen=True)
class PairConfiguration:
    kind: str                  # "intersecting" | "asymptotic" | "ultraparallel"
    angle: float | None = None
    distance: float | None = None


def pair_moduli(p1: HVector, p2: HVector) -> float:
    """The complete congruence invariant t >= 0 of a pair of positive
    points with distinct projections."""
    for p in (p1, p2):
        if classify(p) != PointClass.POSITIVE:
            raise DomainError("pair_moduli needs positive vectors")
    num = abs(herm(p1, p2))
    den = math.sqrt(self_product(p1) * self_product(p2))
    return num / den


def pair_configuration(p1: HVector, p2: HVector,
                       eps: float = ASYMPTOTIC_EPS) -> PairConfiguration:
    t = pair_moduli(p1, p2)
    if _proportional(p1, p2):
        raise DegenerateInputError("pair has equal projections")
    if abs(t - 1.0) <= eps:
        return PairConfiguration("asymptotic")
    if t < 1.0:
        return PairConfiguration("intersecting", angle=math.acos(t))
    return PairConfiguration("ultraparallel", distance=2.0 * math.acosh(t))


def _proportional(p1: HVector, p2: HVector, tol: float = 1e-9) -> bool:
    m = columns([p1, p2])
    return m.rank(tol) < 2


def _unit_positive(p: HVector) -> HVector:
    return p.scaled(1.0 / math.sqrt(self_product(p)))


def _align_pair(p1: HVector, p2: HVector) -> tuple[HVector, HVector, float]:
    """Unit lifts with <p1, p2> real nonnegative; returns (p1, p2, t)."""
    p1, p2 = _unit_positive(p1), _unit_positive(p2)
    h = herm(p1, p2)
    t = abs(h)
    if t > 1e-14:
        p2 = p2.rescale(h / t)
    return p1, p2, t


def pair_isometry(p1: HVector, p2: HVector, q1: HVector, q2: HVector,
                  tol: float = 1e-9) -> Isometry:
    """Explicit isometry carrying the positive pair (p1, p2) to (q1, q2)
    projectively; exists iff their t-invariants agree."""
    model = p1.model
    pb = [_align_pair(to_model(p1, BALL), to_model(p2, BALL))]
    qb = [_align_pair(to_model(q1, BALL), to_model(q2, BALL))]
    (a1, a2, tp), (b1, b2, tq) = pb[0], qb[0]
    if abs(tp - tq) > tol * (1.0 + tp + tq):
        raise DomainError("pairs have different moduli invariants")
    n = a1.n
    j = form_matrix(BALL, n)
    t = 0.5 * (tp + tq)

    def build_frame(x1: HVector, x2: HVector) -> QMatrix:
        if abs(t - 1.0) <= ASYMPTOTIC_EPS:
            u = (x2 - x1).qm
            frame = [(x1.qm, 1.0)]
            w = _null_partner(u, j, frame)
            return QMatrix.from_columns(
                [x1.qm, u, w] + _null_pair_completion(u, w, frame, n - 2, j))
        u = x2 - x1.rescale(t)
        s = _self(u.qm, j)
        sign = 1.0 if s > 0 else -1.0
        uq = u.qm.scale(1.0 / math.sqrt(abs(s)))
        frame = _extend_frame([(x1.qm, 1.0), (uq, sign)], n, j)
        rest = [v for v, _sg in frame if v is not x1.qm and v is not uq]
        return QMatrix.from_columns([x1.qm, uq] + rest)

    fp = build_frame(a1, a2)
    fq = build_frame(b1, b2)
    g = Isometry(fq @ fp.inv(), BALL)
    if model == SIEGEL:
        g = cayley_isometry(g)
    return g


def projective_distance(a: HVector, b: HVector) -> float:
    """Euclidean distance between the best right-scalar alignments of the
    unit lifts; zero iff a and b define the same projective point."""
    _check_compatible(a, b)
    an = a.qm.scale(1.0 / a.qm.norm())
    bn = b.qm.scale(1.0 / b.qm.norm())
    lam = (bn.h @ an).entry(0, 0)  # Euclidean best-fit right scalar
    return (an - bn.right_scalar(lam)).norm()
