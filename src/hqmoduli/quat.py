"""Quaternion arithmetic and the rotation primitives used to pick canonical
representatives of conjugation orbits of quaternion vectors.

Conventions: a quaternion is q = a0 + a1*i + a2*j + a3*k with real
components, ij = k, jk = i, ki = j.  The complex split q = c1 + c2*j
(c1 = a0 + a1*i, c2 = a2 + a3*i) is used throughout for interop with
complex linear algebra.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from operator import itemgetter

from .errors import DegenerateInputError, DomainError, UsageError
from .tol import CLASSIFY_EPS, DEPENDENCE_EPS

_new = tuple.__new__


class Quaternion(tuple):
    """The immutable 4-tuple (a0, a1, a2, a3), equal and hashed as that
    tuple.  numpy's binary operators defer to its own, so a numpy scalar
    times a Quaternion is a Quaternion."""

    __slots__ = ()
    __array_ufunc__ = None

    def __new__(cls, a0=0.0, a1=0.0, a2=0.0, a3=0.0):
        return _new(cls, (a0, a1, a2, a3))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return "Quaternion(a0={!r}, a1={!r}, a2={!r}, a3={!r})".format(*self)

    a0, a1, a2, a3 = (property(itemgetter(k)) for k in range(4))

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_complex_pair(c1: complex, c2: complex) -> "Quaternion":
        return _new(Quaternion, (c1.real, c1.imag, c2.real, c2.imag))

    @staticmethod
    def from_json(data) -> "Quaternion":
        a0, a1, a2, a3 = (float(x) for x in data)
        if not all(map(math.isfinite, (a0, a1, a2, a3))):
            raise UsageError(f"non-finite quaternion component in {data!r}")
        return Quaternion(a0, a1, a2, a3)

    # -- views --------------------------------------------------------
    @property
    def c1(self) -> complex:
        return complex(self[0], self[1])

    @property
    def c2(self) -> complex:
        return complex(self[2], self[3])

    def to_json(self) -> list[float]:
        return list(self)

    def re(self) -> float:
        return self[0]

    def im_vec(self) -> "ImVector3":
        return ImVector3(self[1], self[2], self[3])

    # -- algebra ------------------------------------------------------
    def conj(self) -> "Quaternion":
        a0, a1, a2, a3 = self
        return _new(Quaternion, (a0, -a1, -a2, -a3))

    def norm2(self) -> float:
        a0, a1, a2, a3 = self
        return a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3

    def __abs__(self) -> float:
        return math.sqrt(self.norm2())

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise DomainError("inverse of zero quaternion")
        a0, a1, a2, a3 = self
        return _new(Quaternion, (a0 / n2, -a1 / n2, -a2 / n2, -a3 / n2))

    def __add__(self, other):
        p0, p1, p2, p3 = self
        q0, q1, q2, q3 = _coerce(other)
        return _new(Quaternion, (p0 + q0, p1 + q1, p2 + q2, p3 + q3))

    __radd__ = __add__

    def __sub__(self, other):
        p0, p1, p2, p3 = self
        q0, q1, q2, q3 = _coerce(other)
        return _new(Quaternion, (p0 - q0, p1 - q1, p2 - q2, p3 - q3))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        a0, a1, a2, a3 = self
        return _new(Quaternion, (-a0, -a1, -a2, -a3))

    def __mul__(self, other):
        p0, p1, p2, p3 = self
        q0, q1, q2, q3 = _coerce(other)
        return _new(Quaternion, (
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ))

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            a0, a1, a2, a3 = self
            return _new(Quaternion, (a0 / other, a1 / other,
                                     a2 / other, a3 / other))
        return self * _coerce(other).inverse()

    def isclose(self, other: "Quaternion", tol: float = 1e-9) -> bool:
        return abs(self - other) <= tol * (1.0 + abs(self) + abs(other))


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _coerce(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, float)):
        return _new(Quaternion, (float(x), 0.0, 0.0, 0.0))
    if isinstance(x, complex):
        return _new(Quaternion, (x.real, x.imag, 0.0, 0.0))
    if isinstance(x, numbers.Complex):  # numpy scalars, after the hot path
        return _coerce(complex(x))
    raise TypeError(f"cannot interpret {x!r} as a quaternion")


def quat(x) -> Quaternion:
    """Coerce a real, complex or quaternion value to Quaternion."""
    return _coerce(x)


@dataclass(frozen=True, slots=True)
class ImVector3:
    """Purely imaginary quaternion v = x*i + y*j + z*k seen as a vector
    in R^3."""

    x: float
    y: float
    z: float

    def to_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def cross(self, other: "ImVector3") -> "ImVector3":
        return ImVector3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def is_independent_of(self, other: "ImVector3") -> bool:
        return (self.cross(other).norm()
                > DEPENDENCE_EPS * self.norm() * other.norm())


def negligible(x: float, scale: float) -> bool:
    """The imaginary-part rule: an imaginary part of size x counts as zero
    when it is at most CLASSIFY_EPS times the scale of its data."""
    return x <= CLASSIFY_EPS * scale


def nu(v1: ImVector3) -> Quaternion:
    """Unit quaternion sending the imaginary vector v1 to |v1| * i by
    conjugation.

    Two-branch formula: if v1 is a negative multiple of i the generic
    branch degenerates and j is used instead.
    """
    x1, r = v1.x, v1.norm()
    if r == 0.0:
        raise DomainError("nu of zero vector")
    if x1 < 0.0 and v1.y == 0.0 and v1.z == 0.0:
        return J
    denom = 2.0 * r * (r + x1)
    if denom <= 0.0:
        # x1 == -r up to rounding: same degenerate direction as above
        return J
    return (r * I + v1.to_quaternion()) / math.sqrt(denom)


def mu(v1: ImVector3, v2: ImVector3) -> Quaternion:
    """Unit quaternion (unique up to sign) conjugating v1 onto the positive
    i-axis and v2 into the upper i-j half plane.

    Raises DegenerateInputError when v1 and v2 are linearly dependent;
    callers should fall back to `nu`.
    """
    if not v1.is_independent_of(v2):
        raise DegenerateInputError("imaginary parts are linearly dependent")
    n = nu(v1)
    w = n.conj() * v2.to_quaternion() * n
    c2 = complex(w.a2, w.a3)
    if c2 == 0:
        raise DegenerateInputError("imaginary parts are linearly dependent")
    phase = cmath.sqrt(c2 / abs(c2))
    m = n * Quaternion(phase.real, phase.imag)
    return canonical_sign(m)


def canonical_sign(q: Quaternion) -> Quaternion:
    """Pick the representative of {q, -q} with Re >= 0, breaking ties by
    the first nonzero imaginary component being positive."""
    for comp in (q.a0, q.a1, q.a2, q.a3):
        if comp > 0.0:
            return q
        if comp < 0.0:
            return -q
    return q


def conjugate_vector(mu_: Quaternion, v: list[Quaternion]) -> list[Quaternion]:
    mc = mu_.conj()
    return [mc * q * mu_ for q in v]


def rotation_normalize_vector(v):
    """Canonical representative of the conjugation orbit of a quaternion
    vector under unit quaternions.

    Scans for the first entry with nonzero imaginary part, then for the
    first later entry whose imaginary part is independent of it; rotates
    the first onto the i-axis (and the second into the i-j half plane).
    Returns (mu, normalized entries, stratum tag).  The result depends
    only on the orbit of v.  The tags, serialized exactly as reported by
    the CLI, are Z_R, Z_C(i), Z(i,j), P_C and P(j), with 1-based indices
    into v.

    An imaginary part counts as zero when its largest component is
    negligible next to the largest |v_i|: an entry that is exactly zero
    carries rounding noise of that size, which a test relative to the
    entry itself would take for an imaginary part.
    """
    v = [quat(q) for q in v]
    if not v:
        raise DomainError("empty vector")

    scale = max(abs(q) for q in v)
    imaginary = [not negligible(max(abs(q.a1), abs(q.a2), abs(q.a3)), scale)
                 for q in v]
    first = next((idx for idx, im in enumerate(imaginary) if im), None)
    if first is None:
        return ONE, list(v), "Z_R"

    ref = v[first].im_vec()
    second = next((idx for idx in range(first + 1, len(v)) if imaginary[idx]
                   and ref.is_independent_of(v[idx].im_vec())), None)

    if second is None:
        rot = nu(ref)
        tag = "P_C" if first == 0 else f"Z_C({first + 1})"
    else:
        rot = mu(ref, v[second].im_vec())
        tag = f"P({second + 1})" if first == 0 else f"Z({first + 1},{second + 1})"
    return rot, conjugate_vector(rot, v), tag
