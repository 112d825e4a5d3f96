"""Dense quaternion matrices stored as a pair of complex arrays.

A quaternion matrix A is kept as A = C1 + C2*j with complex C1, C2.
The complex adjoint embedding

    A  ->  [[ C1,        C2       ],
            [-conj(C2),  conj(C1) ]]

is a *-algebra homomorphism, which lets eigenvalue, rank and inverse
computations be delegated to numpy's complex kernels.  Hermitian
quaternion matrices map to Hermitian complex matrices with each real
eigenvalue doubled; `QMatrix.eigh` and `QMatrix.eigvalsh` turn each pair
back into one eigenvalue and the adjoint's eigenvectors into quaternion
ones (F. Zhang, "Quaternions and matrices of quaternions", Linear Algebra
Appl. 251, 1997).  A matrix with C2 = 0 is complex, and both decompose
its C1 instead, at complex cost.  Both check their own input: a square
matrix, Hermitian at STRUCTURE_TOL.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, UsageError
from .quat import Quaternion, _new, quat
from .tol import INERTIA_EPS, PARTNER_EPS, STRUCTURE_TOL


class QMatrix:
    __slots__ = ("c1", "c2")

    def __init__(self, c1: np.ndarray, c2: np.ndarray):
        c1 = np.asarray(c1, dtype=complex)
        c2 = np.asarray(c2, dtype=complex)
        if c1.shape != c2.shape or c1.ndim != 2:
            raise UsageError("QMatrix needs two complex 2-d arrays of equal shape")
        self.c1 = c1
        self.c2 = c2

    # -- constructors -------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix(np.zeros((rows, cols), dtype=complex),
                       np.zeros((rows, cols), dtype=complex))

    @staticmethod
    def eye(n: int) -> "QMatrix":
        return QMatrix(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))

    @staticmethod
    def from_entries(rows) -> "QMatrix":
        """Build from a nested sequence of Quaternion-coercible entries, as
        one (r, c, 4) float array of the 4-tuples read as pairs (c1, c2)."""
        a = np.array([[quat(x) for x in row] for row in rows], dtype=float)
        pairs = a.reshape(a.shape[:2] + (4,)).view(complex)
        return QMatrix(pairs[..., 0], pairs[..., 1])

    @staticmethod
    def from_columns(cols) -> "QMatrix":
        """Stack matrices with equal row counts side by side."""
        cols = list(cols)
        return QMatrix(np.concatenate([c.c1 for c in cols], axis=1),
                       np.concatenate([c.c2 for c in cols], axis=1))

    @staticmethod
    def real(arr) -> "QMatrix":
        arr = np.asarray(arr, dtype=float)
        return QMatrix(arr.astype(complex), np.zeros_like(arr, dtype=complex))

    # -- shape / access ----------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.c1.shape

    @property
    def is_complex(self) -> bool:
        """Whether C2 is exactly zero: -0.0 is zero and NaN is not."""
        return not np.count_nonzero(self.c2)

    def entry(self, i: int, j: int) -> Quaternion:
        a, b = self.c1.item(i, j), self.c2.item(i, j)
        return _new(Quaternion, (a.real, a.imag, b.real, b.imag))

    def set_entry(self, i: int, j: int, q) -> None:
        q = quat(q)
        self.c1[i, j] = q.c1
        self.c2[i, j] = q.c2

    def to_entries(self) -> list[list[Quaternion]]:
        rows, cols = self.shape
        return [[self.entry(i, j) for j in range(cols)] for i in range(rows)]

    def col(self, j: int) -> "QMatrix":
        return QMatrix(self.c1[:, j:j + 1].copy(), self.c2[:, j:j + 1].copy())

    def cols(self, idx) -> "QMatrix":
        idx = list(idx)
        return QMatrix(self.c1[:, idx].copy(), self.c2[:, idx].copy())

    def copy(self) -> "QMatrix":
        return QMatrix(self.c1.copy(), self.c2.copy())

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.c1, -self.c2)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        a1, a2, b1, b2 = self.c1, self.c2, other.c1, other.c2
        return QMatrix(a1 @ b1 - a2 @ np.conj(b2),
                       a1 @ b2 + a2 @ np.conj(b1))

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        """Entrywise quaternion product a_ij b_ij, broadcasting like numpy."""
        a1, a2, b1, b2 = self.c1, self.c2, other.c1, other.c2
        return QMatrix(a1 * b1 - a2 * np.conj(b2), a1 * b2 + a2 * np.conj(b1))

    def scale(self, x: float) -> "QMatrix":
        return QMatrix(self.c1 * x, self.c2 * x)

    def right_scalar(self, q) -> "QMatrix":
        """Right multiplication by a quaternion scalar (column action)."""
        q = quat(q)
        return QMatrix(self.c1 * q.c1 - self.c2 * np.conj(complex(q.c2)),
                       self.c1 * q.c2 + self.c2 * np.conj(complex(q.c1)))

    @property
    def h(self) -> "QMatrix":
        """Conjugate transpose."""
        return QMatrix(np.conj(self.c1.T), -self.c2.T)

    def adjoint(self) -> np.ndarray:
        """Complex adjoint embedding, shape (2r, 2c)."""
        r, c = self.shape
        a = np.empty((2 * r, 2 * c), dtype=complex)
        a[:r, :c], a[:r, c:] = self.c1, self.c2
        a[r:, :c], a[r:, c:] = -self.c2.conj(), self.c1.conj()
        return a

    def inv(self) -> "QMatrix":
        """Inverse, read off the top block row of the adjoint's inverse."""
        n = self.shape[0]
        m = np.linalg.inv(self.adjoint())
        return QMatrix(m[:n, :n], m[:n, n:])

    def modulus(self) -> np.ndarray:
        """Entrywise |a_ij|, a real array of the matrix's shape."""
        return np.sqrt(np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.modulus()))

    def _spectral_operand(self) -> tuple[np.ndarray, bool]:
        """The complex matrix whose eigendecomposition gives that of this
        Hermitian one, and whether it is C1.  When C2 is exactly zero the
        adjoint is diag(C1, conj C1), whose spectrum is that of C1 with
        every eigenvalue doubled; otherwise it is the adjoint itself.
        Either way ||a - a^H|| <= STRUCTURE_TOL ||a|| in the Frobenius norm
        is the rule ||A - A*|| <= STRUCTURE_TOL ||A||, since the adjoint
        doubles both squared norms; a non-finite entry fails it."""
        if self.c1.shape[0] != self.c1.shape[1]:
            raise UsageError("a spectral decomposition needs a square matrix")
        is_complex = self.is_complex
        a = self.c1 if is_complex else self.adjoint()
        d = a - a.conj().T
        if not np.vdot(d, d).real <= STRUCTURE_TOL ** 2 * np.vdot(a, a).real:
            raise DomainError("a spectral decomposition needs a Hermitian matrix")
        return a, is_complex

    def eigvalsh(self) -> np.ndarray:
        """The m ascending eigenvalues of an m x m Hermitian quaternion
        matrix: those of C1 when C2 = 0, and otherwise the adjacent pairs
        of the doubled adjoint spectrum, averaged."""
        a, is_complex = self._spectral_operand()
        w = np.linalg.eigvalsh(a)
        return w if is_complex else _pair_means(w)

    def eigh(self) -> tuple[np.ndarray, "QMatrix"]:
        """Eigendecomposition A = Q diag(lam) Q* of a Hermitian quaternion
        matrix: the ascending eigenvalues lam of `eigvalsh` and a unitary
        Q whose column k belongs to lam[k].

        When C2 = 0, A is a complex Hermitian matrix: np.linalg.eigh of C1
        gives lam and unitary eigenvectors V, which are already a
        quaternion frame Q = V.

        Otherwise Q comes from np.linalg.eigh of the complex adjoint.  An
        adjoint eigenvector (a; b) is the quaternion column a - conj(b) j;
        its partner (-conj b; conj a) belongs to the same eigenvalue.  When
        the eigenvalues of A are distinct, the two-dimensional eigenspace of
        each adjoint pair (w[2k], w[2k+1]) holds the partner of its first
        vector, so the even eigenvectors v[:, 0::2] = (X; Y) give Q
        directly.  They are orthonormal, so Q is unitary exactly when
        each is orthogonal to the partners of the others, that is when
        X^T Y - Y^T X vanishes, which is decided at PARTNER_EPS.  A repeated
        eigenvalue may put a vector and its partner among the even ones;
        then `_symplectic_gram_schmidt` picks the columns instead."""
        a, is_complex = self._spectral_operand()
        w, v = np.linalg.eigh(a)
        if is_complex:
            return w, QMatrix(v, np.zeros(v.shape, dtype=complex))
        m = self.shape[0]
        x = v[:, 0::2]
        d = x[:m].T @ x[m:]
        if abs(d - d.T).max(initial=0.0) > PARTNER_EPS:
            x = _symplectic_gram_schmidt(v)
        return _pair_means(w), QMatrix(x[:m], -np.conj(x[m:]))

    def __repr__(self) -> str:
        rows = self.to_entries()
        body = ";\n ".join(", ".join(format_quat(q) for q in row) for row in rows)
        return f"QMatrix([\n {body}\n])"


def span_spectrum(x: np.ndarray, j: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of U^H j U, the form j on the span of the left singular
    vectors U of x above INERTIA_EPS of the largest; None if U spans all."""
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    u = u[:, :np.count_nonzero(s > INERTIA_EPS * s[0])]
    if u.shape[1] < len(x):
        return np.linalg.eigvalsh(u.conj().T @ (j @ u))


@functools.lru_cache(maxsize=64)
def strict_upper(m: int) -> np.ndarray:
    """Read-only (m, m) mask of the index pairs a < b, made once per m."""
    mask = np.arange(m)[:, None] < np.arange(m)
    mask.flags.writeable = False
    return mask


def _pair_means(w: np.ndarray) -> np.ndarray:
    """The doubled ascending adjoint spectrum w, each pair averaged, halved
    before the sum so that the mean of a finite pair never overflows."""
    return 0.5 * w[0::2] + 0.5 * w[1::2]


def _symplectic_gram_schmidt(v: np.ndarray) -> np.ndarray:
    """Orthonormal adjoint vectors, one per quaternion column, from the
    (2m, 2m) adjoint eigenvectors v, in the order of the eigenvectors they
    came from.  Each step takes the first eigenvector whose part outside
    the chosen vectors and their partners is at least half the largest
    such part, then projects the pair out of the rest, so repeated
    eigenvalues give independent columns.  Each chosen vector stays in its
    eigenspace, which has even size 2r in the ascending adjoint spectrum
    and gives r of the m columns, so sorted column k belongs to the
    eigenvalue of adjoint pair k."""
    m = v.shape[0] // 2
    x, source = np.empty((2 * m, m), dtype=complex), np.empty(m, dtype=int)
    for s in range(m):
        size = np.einsum("ij,ij->j", v.conj(), v).real
        t = int(np.argmax(size >= 0.5 * size.max()))
        x[:, s] = v[:, t] / math.sqrt(size[t])
        both = np.column_stack([x[:, s], np.concatenate(
            [-np.conj(x[m:, s]), np.conj(x[:m, s])])])
        v = v - both @ (both.conj().T @ v)
        source[s] = t
    return x[:, np.argsort(source)]


def format_quat(q: Quaternion) -> str:
    return f"({q.a0:+.4g}{q.a1:+.4g}i{q.a2:+.4g}j{q.a3:+.4g}k)"
