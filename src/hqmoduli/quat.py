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
from operator import itemgetter

from .errors import DegenerateInputError, DomainError, UsageError
from .tol import CLASSIFY_EPS, DEPENDENCE_EPS

_new = tuple.__new__


class Record(tuple):
    """An immutable tuple of named fields, equal and hashed as that tuple:
    `class R(Record, fields="a b")` reads field k as `property(itemgetter(k))`.
    Each record keeps its own `__slots__ = ()` and a `__new__` that checks
    and defaults its fields; `__getnewargs__` hands pickle and copy the
    fields, not the whole tuple as the first one."""

    __slots__ = ()

    def __init_subclass__(cls, fields: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        for k, name in enumerate(fields.split()):
            setattr(cls, name, property(itemgetter(k)))

    def __getnewargs__(self):
        return tuple(self)

    def as_tuple(self) -> tuple:
        return tuple(self)


class Quaternion(Record, fields="a0 a1 a2 a3"):
    """The immutable 4-tuple (a0, a1, a2, a3).  numpy's binary operators
    defer to its own, so a numpy scalar times a Quaternion is a
    Quaternion."""

    __slots__ = ()
    __array_ufunc__ = None

    def __new__(cls, a0=0.0, a1=0.0, a2=0.0, a3=0.0):
        return _new(cls, (a0, a1, a2, a3))

    def __repr__(self) -> str:
        return "Quaternion(a0={!r}, a1={!r}, a2={!r}, a3={!r})".format(*self)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_json(data) -> "Quaternion":
        """Four finite JSON numbers; a bool or a string is a UsageError."""
        a = tuple(data)
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                   for x in a):
            raise UsageError(f"non-numeric quaternion component in {data!r}")
        a0, a1, a2, a3 = (float(x) for x in a)
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
        return _new(ImVector3, self[1:])

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
        q0, q1, q2, q3 = quat(other)
        return _new(Quaternion, (p0 + q0, p1 + q1, p2 + q2, p3 + q3))

    __radd__ = __add__

    def __sub__(self, other):
        p0, p1, p2, p3 = self
        q0, q1, q2, q3 = quat(other)
        return _new(Quaternion, (p0 - q0, p1 - q1, p2 - q2, p3 - q3))

    def __rsub__(self, other):
        return quat(other) - self

    def __neg__(self):
        a0, a1, a2, a3 = self
        return _new(Quaternion, (-a0, -a1, -a2, -a3))

    def __mul__(self, other):
        p0, p1, p2, p3 = self
        q0, q1, q2, q3 = quat(other)
        return _new(Quaternion, (
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ))

    def __rmul__(self, other):
        return quat(other) * self

    def __truediv__(self, other):
        """Componentwise for a real divisor, which a numpy scalar meets as
        a Python float; self times the inverse otherwise."""
        if not isinstance(other, (int, float)):
            if not isinstance(other, numbers.Real):
                return self * quat(other).inverse()
            other = float(other)
        a0, a1, a2, a3 = self
        return _new(Quaternion, (a0 / other, a1 / other,
                                 a2 / other, a3 / other))

    def isclose(self, other: "Quaternion", tol: float) -> bool:
        return abs(self - other) <= tol * (1.0 + abs(self) + abs(other))


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def quat(x) -> Quaternion:
    """Coerce a real, complex or quaternion value to Quaternion."""
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, float)):
        return _new(Quaternion, (float(x), 0.0, 0.0, 0.0))
    if isinstance(x, complex):
        return _new(Quaternion, (x.real, x.imag, 0.0, 0.0))
    if isinstance(x, numbers.Complex):  # numpy scalars, after the hot path
        return quat(complex(x))
    raise TypeError(f"cannot interpret {x!r} as a quaternion")


class ImVector3(Record, fields="x y z"):
    """Purely imaginary quaternion v = x*i + y*j + z*k seen as a vector
    in R^3: the immutable 3-tuple (x, y, z), as Quaternion is its 4-tuple."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        return _new(cls, (x, y, z))

    def to_quaternion(self) -> Quaternion:
        return _new(Quaternion, (0.0, *self))

    def norm(self) -> float:
        x, y, z = self
        return math.sqrt(x * x + y * y + z * z)

    def cross(self, other: "ImVector3") -> "ImVector3":
        x1, y1, z1 = self
        x2, y2, z2 = other
        return _new(ImVector3, (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2,
                                x1 * y2 - y1 * x2))

    def is_independent_of(self, other: "ImVector3", scale: float) -> bool:
        """|self x other| > DEPENDENCE_EPS |self| scale, with `scale` that of
        the caller's data, as in `negligible`: an `other` much shorter
        than its data carries rounding noise that a test against |other|
        would take for a direction."""
        return (self.cross(other).norm()
                > DEPENDENCE_EPS * self.norm() * scale)


def negligible(x: float, scale: float) -> bool:
    """The imaginary-part rule: an imaginary part of size x counts as zero
    when it is at most CLASSIFY_EPS times the scale of its data."""
    return x <= CLASSIFY_EPS * scale


def nu(v1: ImVector3) -> Quaternion:
    """Unit quaternion sending the imaginary vector v1 to |v1| * i by
    conjugation.

    Two-branch formula: r*i + v1 = (r + x1)i + yj + zk over its computed
    norm, with r + x1 written without cancellation for x1 < 0; if v1 is
    a negative multiple of i this degenerates and j is used instead.
    """
    (x1, y, z), r = v1, v1.norm()
    if r == 0.0:
        raise DomainError("nu of zero vector")
    s = r + x1 if x1 >= 0.0 else (y * y + z * z) / (r - x1)
    if s <= 0.0:
        return J
    h = math.hypot(s, y, z)
    return Quaternion(0.0, s / h, y / h, z / h)


def mu(v1: ImVector3, v2: ImVector3) -> Quaternion:
    """Unit quaternion (unique up to sign) conjugating v1 onto the positive
    i-axis and v2 into the upper i-j half plane.

    Raises DegenerateInputError when v1 and v2 are linearly dependent;
    callers should fall back to `nu`.
    """
    if not v1.is_independent_of(v2, v2.norm()):
        raise DegenerateInputError("imaginary parts are linearly dependent")
    return _mu(v1, v2)


def _mu(v1: ImVector3, v2: ImVector3) -> Quaternion:
    """`mu` of a pair whose independence the caller has decided."""
    n = nu(v1)
    w = n.conj() * v2.to_quaternion() * n
    c2 = complex(w.a2, w.a3)
    if c2 == 0:
        raise DegenerateInputError("imaginary parts are linearly dependent")
    phase = cmath.sqrt(c2 / abs(c2))
    return canonical_sign(n * Quaternion(phase.real, phase.imag))


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
    """[conj(mu) q mu for q in v], the same products more cheaply: for any
    mu = w + xi + yj + zk, conj(mu) q mu is |mu|^2 a0 on the real part of
    q and one 3x3 map, built once from mu, on its imaginary part."""
    w, x, y, z = mu_
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    wx, wy, wz = 2.0 * w * x, 2.0 * w * y, 2.0 * w * z
    xy, xz, yz = 2.0 * x * y, 2.0 * x * z, 2.0 * y * z
    n2 = ww + xx + yy + zz
    r11, r12, r13 = ww + xx - yy - zz, xy + wz, xz - wy
    r21, r22, r23 = xy - wz, ww - xx + yy - zz, yz + wx
    r31, r32, r33 = xz + wy, yz - wx, ww - xx - yy + zz
    return [_new(Quaternion, (n2 * a0, r11 * a1 + r12 * a2 + r13 * a3,
                              r21 * a1 + r22 * a2 + r23 * a3,
                              r31 * a1 + r32 * a2 + r33 * a3))
            for a0, a1, a2, a3 in map(quat, v)]


def normalizing_rotation(v: list[Quaternion]) -> tuple[Quaternion, str]:
    """The unit quaternion mu and the stratum tag that rotation-normalize
    the quaternion vector v, without conjugating v by mu.

    Scans for the first entry with nonzero imaginary part, then for the
    first later entry whose imaginary part is independent of it; mu
    rotates the first onto the i-axis (and the second into the i-j half
    plane).  The tags, serialized exactly as reported by the CLI, are Z_R,
    Z_C(i), Z(i,j), P_C and P(j), with 1-based indices into v.

    An imaginary part counts as zero when its largest component is
    negligible next to the largest |v_i|: an entry that is exactly zero
    carries rounding noise of that size, which a test relative to the
    entry itself would take for an imaginary part.  Independence is
    decided at the same scale, so that a short imaginary part parallel to
    the first does not fix the rotation about it by its noise.  `mu`
    tests against |v2| <= the largest |v_i|, a weaker test that every pair
    passing here would pass, so its rotation is built without that test.
    """
    if not v:
        raise DomainError("empty vector")
    scale = max(abs(q) for q in v)
    imaginary = [not negligible(max(abs(q.a1), abs(q.a2), abs(q.a3)), scale)
                 for q in v]
    first = next((idx for idx, im in enumerate(imaginary) if im), None)
    if first is None:
        return ONE, "Z_R"
    ref = v[first].im_vec()
    second = next((idx for idx in range(first + 1, len(v)) if imaginary[idx]
                   and ref.is_independent_of(v[idx].im_vec(), scale)), None)
    if second is None:
        return nu(ref), "P_C" if first == 0 else f"Z_C({first + 1})"
    return (_mu(ref, v[second].im_vec()),
            f"P({second + 1})" if first == 0 else f"Z({first + 1},{second + 1})")


def rotation_normalize_vector(v):
    """(mu, normalized entries, stratum tag): the `normalizing_rotation` of
    v and v conjugated by mu (as is for Z_R, which keeps -0.0), the
    canonical representative of the orbit of v under unit quaternions."""
    v = [quat(q) for q in v]
    rot, tag = normalizing_rotation(v)
    return rot, v if tag == "Z_R" else conjugate_vector(rot, v), tag
