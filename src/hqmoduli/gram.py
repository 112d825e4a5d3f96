"""Gram matrices of point tuples in H^{n,1}: computation, inertia,
admissibility, and realization of an admissible Hermitian matrix by an
explicit tuple of points.

Conventions: for a tuple p = (p_1, ..., p_m) the Gram matrix has entries
g_ij = <p_j, p_i> = p_i* J p_j, so G = P* J P with P the column matrix.
Congruence acts by G -> D* G D for an invertible right factor D, and
`align` is the one solver for the diagonal D that normalizes G.

Both the inertia and the realization read the m eigenvalues of G from
`QMatrix.eigvalsh` and `QMatrix.eigh`, which check that G is square and
Hermitian.  When C2 = 0, as for every normalized triangle Gram matrix,
these are the eigenvalues of C1; otherwise they are the doubled spectrum
of the complex adjoint, each pair averaged.  The same INERTIA_EPS zeroing
is applied to both, so `inertia` and `realize` make the same rank
decision.  `realize` builds P = F sqrt|L| Q* straight from the complex
parts of Q, where G = Q L Q* is the one eigendecomposition of
`QMatrix.eigh` and column k of Q belongs to the k-th eigenvalue; the
frame constructions of `hform` share it.

Products follow the same rule, complex matrices at complex cost: when
the column matrix of the lifts passes `QMatrix.is_complex`, the one C2 = 0
test that the spectra use too, `gram` is P1^H (J1 P1) with an all-zero
C2, and the record builds the complex adjoint of its columns only when the
span or the distinctness check asks for it.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import (DegenerateInputError, DomainError, InconsistencyError,
                     RealizationError, UsageError)
from .hform import (BALL, HVector, PointClass, check_dimension, columns,
                    form_adjoint, form_matrix, point_class, to_model,
                    tuple_from_columns)
from .qmatrix import QMatrix, adjoint_rank, strict_upper
from .quat import Quaternion, Record, quat
from .tol import INERTIA_EPS, NULL_EPS, PRODUCT_EPS, UNIT_EPS, ZERO_EPS


class Inertia(Record, fields="n_plus n_minus n_zero"):
    """The signature (n_plus, n_minus, n_zero) of a Hermitian matrix, an
    immutable 3-tuple."""

    __slots__ = ()

    def __new__(cls, n_plus, n_minus, n_zero):
        return tuple.__new__(cls, (n_plus, n_minus, n_zero))

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus


class Lifts(tuple):
    """A tuple of lifts stacked once: the column matrix `p`, its column
    norms `norms`, the Gram matrix `g` and the class of each lift,
    `classes`, at `eps` (null when |<z,z>| <= eps |z|^2).  `Lifts(lifts)`
    is the record itself, so the stages share and validate one record; an
    eps other than the record's own makes a new record, and a new record
    without one is classified at NULL_EPS.
    The complex adjoint `adj` of `p` (for the Gram matrix, the span and the
    distinctness check) is made at once when some lift has C2 != 0, and
    on first use when all are complex.  Its unit-diagonal Gram matrix
    `unit`, the modulus `mod` of `unit`, the zero pattern `nz` of `mod`
    and the `plan` of `nz`, which every positive stage reads, are made on
    first use; the positive stages keep on it the partition `structure`."""

    checked = structure = None

    def __new__(cls, points, eps: float | None = None):
        if isinstance(points, Lifts) and eps in (None, points.eps):
            return points
        if eps is None:
            eps = NULL_EPS
        lifts = super().__new__(cls, points)
        p = lifts.p = columns(lifts)
        x = p.c1 if p.is_complex else lifts.adj[:, :len(lifts)]
        # np.linalg.norm(x, axis=0), bit for bit, without its wrapper
        lifts.norms = np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))
        lifts.g = gram(lifts)
        lifts.classes = [point_class(s, r, eps) for s, r in zip(
            lifts.g.c1.diagonal().real.tolist(), lifts.norms.tolist())]
        lifts.eps = eps
        return lifts

    def validated(self, cls: PointClass, least: int) -> "Lifts":
        """At least `least` lifts, all of class `cls` and distinct by the
        rule of that class: no vanishing product for null lifts
        (`check_nonvanishing`), no coincident pair for positive ones
        (`check_distinct`).  The record remembers the class it passed."""
        if len(self) < least:
            raise UsageError(f"need at least {least} {cls.value} points")
        if self.checked != cls:
            if any(c != cls for c in self.classes):
                raise DomainError(f"tuple must consist of {cls.value} points")
            if cls == PointClass.NULL:
                check_nonvanishing(self)
            else:
                check_distinct(self)
            self.checked = cls
        return self

    @cached_property
    def adj(self) -> np.ndarray:
        return self.p.adjoint()

    @cached_property
    def unit(self) -> QMatrix:
        return unit_diagonal(self.g)

    @cached_property
    def mod(self) -> np.ndarray:
        return self.unit.modulus()

    @cached_property
    def nz(self) -> np.ndarray:
        return nonzero_products(self.mod)

    @cached_property
    def plan(self) -> PatternPlan:
        return pattern_plan(self.nz.tobytes(), len(self))


def gram(points) -> QMatrix:
    """Gram matrix G with g_ij = <p_j, p_i> of a tuple of HVectors.  With
    every C2 = 0 it is P1^H (J1 P1), since J is real; otherwise it is the
    top block row [G1, G2] of adj(P)^H adj(J) adj(P), the adjoint of
    P* J P."""
    record = isinstance(points, Lifts)
    if not record:
        points = list(points)
    p = points.p if record else columns(points)
    z, m = points[0], len(points)
    if p.is_complex:
        g1 = p.c1.conj().T @ (form_matrix(z.model, z.n).c1 @ p.c1)
        return QMatrix(g1, np.zeros((m, m), dtype=complex))
    adj = points.adj if record else p.adjoint()
    top = adj[:, :m].conj().T @ (form_adjoint(z.model, z.n) @ adj)
    return QMatrix(top[:, :m], top[:, m:])


def triple_product(g: QMatrix) -> Quaternion:
    """<p1, p2, p3> = <p2,p1><p3,p2><p1,p3> = g_12 g_23 g_31 for the Gram
    matrix g of (p1, p2, p3) (lift dependent only up to
    lambda-bar (.) lambda)."""
    return g.entry(0, 1) * g.entry(1, 2) * g.entry(2, 0)


def rescale_gram(g: QMatrix, lambdas) -> QMatrix:
    """Gram matrix of the rescaled tuple (p_1 lambda_1, ...):
    D* G D with D = diag(lambdas), that is conj(lambda_a) g_ab lambda_b
    entrywise: the products of `D.h * G * D`, bit for bit, without D:
    conj(lambda_a) is a column and lambda_b a (1, m) row, as in D.h and D."""
    lam = np.array([lambdas], dtype=float).view(complex)
    l1, l2 = lam[..., 0], lam[..., 1]
    a1, a2 = np.conj(l1.T), -l2.T
    x1 = a1 * g.c1 - a2 * np.conj(g.c2)
    x2 = a1 * g.c2 + a2 * np.conj(g.c1)
    return QMatrix(x1 * l1 - x2 * np.conj(l2), x1 * l2 + x2 * np.conj(l1))


def unit_diagonal(g: QMatrix) -> QMatrix:
    """g_ab / sqrt(g_aa g_bb): the Gram matrix of the unit lifts of a tuple
    with positive diagonal, which rescaling the lifts moves by unit factors.
    Any other diagonal, as of null lifts, is a DomainError."""
    diag = g.c1.diagonal().real
    if np.count_nonzero(diag > 0.0) < diag.size:
        raise DomainError("a unit-diagonal Gram matrix needs a positive diagonal")
    s = diag ** -0.5
    return QMatrix(g.c1 * s[:, None] * s, g.c2 * s[:, None] * s)


def nonzero_products(mod: np.ndarray) -> np.ndarray:
    """The zero-product rule on the modulus `mod` of a Gram matrix g:
    entry (a, b) is True when |g_ab| exceeds ZERO_EPS times the largest
    |g_ab|."""
    return mod > ZERO_EPS * mod.max()


def spanning_forest(rows) -> tuple:
    """One breadth-first sweep of the zero pattern `rows`, nested lists of
    booleans: the blocks, its connected components sorted, and the edges
    (c, t) of a spanning tree of each, in the order `align` reads them.
    Each block is rooted at its lowest-index point with the most nonzero
    products, and neighbours are visited in index order, so a block in
    which every product is nonzero gets the star from its first point."""
    m = len(rows)
    degree = [sum(row) for row in rows]
    seen, blocks, edges = [False] * m, [], []
    # sorted is stable: ties go to the lowest index
    for root in sorted(range(m), key=lambda a: -degree[a]):
        if seen[root]:
            continue
        seen[root] = True
        # the queue grows while it is read: a breadth-first order
        queue = [root]
        for c in queue:
            for t in range(m):
                if not seen[t] and rows[c][t]:
                    seen[t] = True
                    queue.append(t)
                    edges.append((c, t))
        blocks.append(tuple(sorted(queue)))
    return tuple(sorted(blocks)), tuple(edges)


def _refine_sub_blocks(indices, nz):
    """Greedy sub-block refinement of one block of the zero pattern nz:
    repeatedly take the lowest index with the fewest zero products among
    the remainder and group it with its nonzero partners."""
    out, anchors = [], []
    rem = list(indices)
    while rem:
        zeros = {a: sum(1 for b in rem if b != a and not nz[a][b]) for a in rem}
        mn = min(zeros.values())
        c = min(a for a in rem if zeros[a] == mn)
        sb = tuple(sorted(b for b in rem if b == c or nz[c][b]))
        out.append(sb)
        anchors.append(c)
        rem = [b for b in rem if b not in sb]
    return tuple(out), tuple(anchors)


class PartitionStructure(Record, fields="kind blocks sub_blocks anchors"):
    """Zero-pattern data of a positive tuple: the kind (regular or
    parabolic), the top-level blocks (connected components of the
    nonzero-product graph), and for regular tuples the sub-block
    refinement with its anchor indices.  All indices are 0-based.  An
    immutable 4-tuple (kind, blocks, sub_blocks, anchors)."""

    __slots__ = ()

    def __new__(cls, kind: str, blocks: tuple[tuple[int, ...], ...],
                sub_blocks: tuple[tuple[tuple[int, ...], ...], ...] = (),
                anchors: tuple[tuple[int, ...], ...] = ()):
        return tuple.__new__(cls, (kind, blocks, sub_blocks, anchors))

    def to_json(self) -> dict:
        out = {"kind": self.kind,
               "blocks": [[i + 1 for i in b] for b in self.blocks]}
        if self.kind == "regular":
            out["sub_blocks"] = [[[i + 1 for i in sb] for sb in sbs]
                                 for sbs in self.sub_blocks]
            out["anchors"] = [[a + 1 for a in anc] for anc in self.anchors]
        return out


class PatternPlan(Record, fields="blocks edges regular parabolic pairs upper"):
    """What a positive coordinate reads off its zero pattern alone, a 6-tuple:
    the `spanning_forest` blocks and edges, both structures, the nonzero
    pairs a < b of each block, row-major, and all m points' upper pairs."""

    __slots__ = ()

    def __new__(cls, blocks, edges, regular, parabolic, pairs, upper):
        return tuple.__new__(cls, (blocks, edges, regular, parabolic, pairs,
                                   upper))


@lru_cache(maxsize=128)
def pattern_plan(key: bytes, m: int) -> PatternPlan:
    """The plan of the m x m zero pattern whose `tobytes` are `key`: one walk
    and one refinement per pattern, shared by the records of that pattern."""
    rows = np.frombuffer(key, dtype=bool).reshape(m, m).tolist()
    blocks, edges = spanning_forest(rows)
    subs, ancs = zip(*(_refine_sub_blocks(blk, rows) for blk in blocks))
    pairs = tuple(own for blk in blocks if (own := tuple(
        (a, b) for a, b in combinations(blk, 2) if rows[a][b])))
    return PatternPlan(blocks, edges,
                       PartitionStructure("regular", blocks, subs, ancs),
                       PartitionStructure("parabolic", blocks), pairs,
                       tuple(combinations(range(m), 2)))


def align(lifts: Lifts, edges, d=None) -> list[Quaternion]:
    """The diagonal D of the rescaling p_a -> p_a d_a that normalizes the
    Gram matrix g of the record along a forest of `edges` (c, t), each t
    reached once, after its c.  The roots keep their factor in d, by
    default s_a = 1/sqrt(g_aa); each edge, in order, sets
    d_t = h / (|h| rho_t) with h = g_tc d_c, where rho_t = sqrt(g_tt) for a
    positive lift t and |h| for a null one, so that the rescaled product
    conj(d_t) g_tc d_c is the real |h| / rho_t: s_c |g_ct| s_t below a
    positive root, 1 for a null t."""
    lifts = Lifts(lifts)
    g, null = lifts.g, PointClass.NULL
    diag = g.c1.diagonal().real.tolist()
    d = [quat(1.0 / math.sqrt(x)) for x in diag] if d is None else list(d)
    for c, t in edges:
        h = g.entry(t, c) * d[c]
        d[t] = (h / h.norm2() if lifts.classes[t] is null
                else h / (abs(h) * math.sqrt(diag[t])))
    return d


def check_nonvanishing(lifts: Lifts) -> None:
    """The distinctness rule of null lifts: distinct null points are never
    orthogonal, so raise when some |<p_a, p_b>| <= PRODUCT_EPS |p_a| |p_b|,
    a != b."""
    n = lifts.norms
    small = strict_upper(len(n)) & (lifts.g.modulus()
                                     <= PRODUCT_EPS * np.outer(n, n))
    if np.count_nonzero(small):
        i, j = np.argwhere(small)[0]
        raise DegenerateInputError(
            f"points {i + 1} and {j + 1} have vanishing product; "
            "distinct null points cannot be orthogonal")


def check_distinct(lifts: Lifts) -> None:
    """Two lifts whose unit product has modulus 1 must span a plane; one
    stacked rank of the column pairs' adjoints decides every such pair."""
    m = len(lifts)
    close = strict_upper(m) & (np.abs(lifts.mod - 1.0) <= UNIT_EPS)
    if np.count_nonzero(close):
        near = np.argwhere(close)
        cols = np.hstack([near, near + m])
        ranks = adjoint_rank(lifts.adj[:, cols].transpose(1, 0, 2))
        if np.count_nonzero(ranks < 2):
            a, b = near[np.argmax(ranks < 2)]
            raise DegenerateInputError(f"points {a + 1} and {b + 1} coincide")


def _zeroed(lam: np.ndarray) -> list[float]:
    """The ascending eigenvalues lam with those of modulus at most
    INERTIA_EPS * max|lam| set to 0.  A list, since there are at most a
    few.  A spectrum that overflowed has no signature: DomainError."""
    lam = lam.tolist()
    if not all(map(math.isfinite, lam)):
        raise DomainError("the spectrum of the matrix is not finite")
    if not lam:
        return []
    zero = INERTIA_EPS * max(-lam[0], lam[-1])
    return [0.0 if abs(x) <= zero else x for x in lam]


def _signature(lam: list[float]) -> Inertia:
    npos = nneg = 0
    for x in lam:
        npos += x > 0
        nneg += x < 0
    return Inertia(npos, nneg, len(lam) - npos - nneg)


def hyperbolic_pair(mod: np.ndarray) -> bool:
    """Whether the modulus `mod` of an m x m unit-diagonal Gram matrix u
    certifies inertia(u).n_minus >= 1 without a spectrum: its largest
    entry t has t - 1 > 2 INERTIA_EPS m t.  The pair that attains t spans
    a plane of signature (1, 1), whose 2 x 2 minor has eigenvalues 1 +- t,
    so by interlacing lambda_min(u) <= 1 - t, while lambda_max(u) <= m t;
    `_zeroed` then cannot zero lambda_min, with a margin of INERTIA_EPS m t
    for rounding.  A NaN or inf entry certifies nothing."""
    t = mod.max()
    return bool(t - 1.0 > 2.0 * INERTIA_EPS * len(mod) * t)


def inertia(g: QMatrix) -> Inertia:
    """Signature (n_plus, n_minus, n_zero) of a Hermitian quaternion
    matrix, from the eigenvalues of `QMatrix.eigvalsh`."""
    return _signature(_zeroed(g.eigvalsh()))


def degenerate_span(mod: np.ndarray, iner, span, nz=None) -> bool:
    """Whether the lifts of a positive tuple span a degenerate subspace
    (parabolic) or not (regular), read off the modulus `mod` of their
    unit-diagonal Gram matrix u: not with a `hyperbolic_pair`, nor when
    the inertia `iner()` of u has a negative eigenvalue, else exactly when
    the span dimension `span()` is one more than the rank.  A degenerate
    span whose zero pattern nz (of mod, unless given) is not cliques,
    nz @ nz == nz, of modulus 1 within UNIT_EPS is an InconsistencyError."""
    if hyperbolic_pair(mod) or (sig := iner()).n_minus \
            or sig.rank != span() - 1:
        return False
    nz = nonzero_products(mod) if nz is None else nz
    if (np.count_nonzero(nz @ nz != nz)
            or np.count_nonzero(np.abs(mod[nz] - 1.0) > UNIT_EPS)):
        raise InconsistencyError("degenerate span but a product inside a "
                                 "block does not have modulus 1")
    return True


def check_admissible(iner: Inertia, n: int) -> None:
    """Raise RealizationError naming the first violated inertia condition
    for realizability in H^{n,1}; n < 1 is a UsageError."""
    check_dimension(n)
    if iner.n_minus > 1:
        raise RealizationError("n_minus <= 1")
    if iner.n_plus > n:
        raise RealizationError("n_plus <= n")
    if iner.n_plus + iner.n_minus < 1:
        raise RealizationError("n_plus + n_minus >= 1")


def realize(g: QMatrix, n: int, model: str = BALL) -> tuple[HVector, ...]:
    """Tuple of points in H^{n,1} whose Gram matrix is g (up to numerical
    error), or RealizationError naming the inertia obstruction."""
    return realize_with_inertia(g, n, model)[0]


def realize_with_inertia(g: QMatrix, n: int, model: str = BALL
                         ) -> tuple[tuple[HVector, ...], Inertia]:
    """`realize` of g and the inertia of g, read off the one
    eigendecomposition that the realization makes."""
    check_dimension(n)
    w, q = g.eigh()
    lam = _zeroed(w)
    iner = _signature(lam)
    check_admissible(iner, n)

    # g = Q diag(l) Q* with Q unitary, so P = F sqrt|l| Q* has P* J P = g
    # when F (ball model) puts the positive eigenvalues on distinct
    # coordinates 0..n_plus-1 and the negative one on coordinate n.  F is
    # real and Q* = C1^H - C2^T j, so P = F C1^H - (F C2^T) j.
    m = len(lam)
    f = np.zeros((n + 1, m))
    next_pos = 0
    for t, lt in enumerate(lam):
        if lt > 0:
            f[next_pos, t] = math.sqrt(lt)
            next_pos += 1
        elif lt < 0:
            f[n, t] = math.sqrt(-lt)
    p = QMatrix(f @ q.c1.conj().T, -(f @ q.c2.T))

    # Kernel directions of g leave columns that may coincide (or vanish,
    # for an all-zero row).  When the signature leaves room for a null
    # vector orthogonal to the realized span, adding distinct multiples
    # of it separates the points without changing any product.
    unit = math.sqrt(max(-w[0], w[-1]))
    null_available = iner.n_minus == 0 and iner.n_plus < n
    if not null_available:
        sq = (np.abs(p.c1) ** 2 + np.abs(p.c2) ** 2).sum(axis=0)
        if sq.min() <= (PRODUCT_EPS * unit) ** 2:
            raise RealizationError(
                "isotropic direction available for zero rows")
    elif iner.n_zero > 0:
        shift = unit * np.arange(1.0, m + 1.0)
        p.c1[iner.n_plus] += shift
        p.c1[n] += shift
    points = tuple_from_columns(p, BALL)
    if model != BALL:
        points = tuple(to_model(z, model) for z in points)
    return points, iner


def realization_error(points, g: QMatrix) -> float:
    """Frobenius distance between gram(points) and the target g."""
    return (gram(points) - g).norm()


def span_dimension(points) -> int:
    """Quaternionic dimension of the right span of the lifted tuple."""
    adj = points.adj if isinstance(points, Lifts) else columns(points).adjoint()
    return int(adjoint_rank(adj))
