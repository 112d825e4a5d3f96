"""Dense quaternion matrices stored as a pair of complex arrays.

A quaternion matrix A is kept as A = C1 + C2*j with complex C1, C2.
The complex adjoint embedding

    A  ->  [[ C1,        C2       ],
            [-conj(C2),  conj(C1) ]]

is a *-algebra homomorphism, which lets eigenvalue, rank and inverse
computations be delegated to numpy's complex kernels.  Hermitian
quaternion matrices map to Hermitian complex matrices with each real
eigenvalue doubled; `QMatrix.eigh` turns the adjoint's eigenvectors back
into quaternion ones (F. Zhang, "Quaternions and matrices of
quaternions", Linear Algebra Appl. 251, 1997).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import UsageError
from .quat import Quaternion, quat
from .tol import INERTIA_EPS


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

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_complex_pair(self.c1.item(i, j),
                                            self.c2.item(i, j))

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

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        """||A - A*|| <= tol ||A|| in the Frobenius norm, read off C1 and
        C2 directly: A* = C1^H - C2^T j."""
        c1, c2 = self.c1, self.c2
        if c1.shape[0] != c1.shape[1]:
            return False
        d1, d2 = c1 - c1.conj().T, c2 + c2.T
        dev = np.vdot(d1, d1).real + np.vdot(d2, d2).real
        return dev <= tol * tol * (np.vdot(c1, c1).real + np.vdot(c2, c2).real)

    def eigh(self) -> tuple[np.ndarray, "QMatrix", np.ndarray]:
        """Eigendecomposition A = Q diag(l) Q* of a Hermitian quaternion
        matrix, from np.linalg.eigh of its complex adjoint.

        Returns the ascending adjoint spectrum w, in which each eigenvalue
        of A appears twice, a unitary Q, and for each column of Q the
        index k of its eigenvalue pair (w[2k], w[2k+1]).

        An adjoint eigenvector (a; b) is the quaternion column a - conj(b) j;
        its partner (-conj b; conj a) belongs to the same eigenvalue.  Each
        step takes the first adjoint eigenvector whose part outside the
        chosen vectors and their partners is at least half the largest such
        part, then projects the pair out of the rest (symplectic
        Gram-Schmidt), so repeated eigenvalues give independent columns."""
        w, v = np.linalg.eigh(self.adjoint())
        m = self.shape[0]
        x, source = np.empty((2 * m, m), dtype=complex), np.empty(m, dtype=int)
        for s in range(m):
            size = np.einsum("ij,ij->j", v.conj(), v).real
            t = int(np.argmax(size >= 0.5 * size.max()))
            x[:, s] = v[:, t] / math.sqrt(size[t])
            pair = np.column_stack([x[:, s], np.concatenate(
                [-np.conj(x[m:, s]), np.conj(x[:m, s])])])
            v = v - pair @ (pair.conj().T @ v)
            source[s] = t
        return w, QMatrix(x[:m], -np.conj(x[m:])), source // 2

    def rank(self) -> int:
        """Quaternionic rank of the columns, by `adjoint_rank`."""
        return int(adjoint_rank(self.adjoint()))

    def __repr__(self) -> str:
        rows = self.to_entries()
        body = ";\n ".join(", ".join(format_quat(q) for q in row) for row in rows)
        return f"QMatrix([\n {body}\n])"


def adjoint_rank(a: np.ndarray) -> np.ndarray:
    """Quaternionic ranks of a stack (..., 2r, 2c) of complex adjoints, with
    the columns scaled to unit length, which rescaling keeps: half the
    singular values above INERTIA_EPS times the largest, rounded up."""
    n = np.linalg.norm(a, axis=-2, keepdims=True)
    s = np.linalg.svd(a / np.where(n > 0.0, n, 1.0), compute_uv=False)
    return (np.sum(s > INERTIA_EPS * s[..., :1], axis=-1) + 1) // 2


@functools.lru_cache(maxsize=64)
def strict_upper(m: int) -> np.ndarray:
    """Read-only (m, m) mask of the index pairs a < b, made once per m."""
    mask = np.arange(m)[:, None] < np.arange(m)
    mask.flags.writeable = False
    return mask


def format_quat(q: Quaternion) -> str:
    return f"({q.a0:+.4g}{q.a1:+.4g}i{q.a2:+.4g}j{q.a3:+.4g}k)"
