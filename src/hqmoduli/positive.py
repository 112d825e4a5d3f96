"""Moduli coordinates for ordered tuples of distinct positive points.

Two regimes, distinguished by the span of the lifted tuple:

* parabolic tuples: the span carries a degenerate form (no negative
  vector, one null direction).  The Gram matrix splits into blocks with
  all pairwise products 1 inside a block and 0 across blocks; the
  continuous invariants are cross-ratio style quotients of the
  horospherical coordinates along the shared null direction.

* regular tuples: the span is nondegenerate.  The invariant is the Gram
  matrix itself after block normalization along a spanning forest and
  rotation normalization of the one residual unit of each block.

A tuple gets one Gram matrix and one partition decision, made on its
unit-diagonal Gram matrix.  The congruence test at the end of the module
compares the coordinates of boundary and positive tuples alike.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .boundary import Coordinate, boundary_coordinate
from .errors import DomainError, InconsistencyError
from .gram import (Lifts, align, hyperbolic_pair, inertia, nonzero_products,
                   rescale_gram, span_dimension, spanning_forest,
                   unit_diagonal)
from .hform import PointClass, form_matrix
from .qmatrix import QMatrix
from .quat import (ONE, Quaternion, Record, conjugate_vector, negligible,
                   normalizing_rotation, nu, quat, rotation_normalize_vector)
from .tol import COORD_TOL, ORTHOGONAL_TOL, UNIT_EPS


# ---------------------------------------------------------------------------
# structures

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


# ---------------------------------------------------------------------------
# validation and first normalization

def _partitioned(points, kind: str | None = None) -> Lifts:
    """The lifts, validated and partitioned once, on the record's
    unit-diagonal Gram matrix: rescaling the lifts moves it by unit
    factors, which keep every |g_ab| and every eigenvalue.  With a kind,
    a tuple of the other kind is a DomainError."""
    lifts = Lifts(points).validated(PointClass.POSITIVE, 2)
    if lifts.structure is None:
        lifts.structure = _partition(lifts.unit, lifts.mod, lifts.nz,
                                     lifts.forest[0],
                                     lambda: span_dimension(lifts))
    if kind not in (None, lifts.structure.kind):
        raise DomainError(f"tuple is not {kind}")
    return lifts


def one_normalize(points):
    """First normalization of a positive tuple.

    Returns (d, G): diagonal rescaling making every g_ii = 1 and every
    g_1i real nonnegative, followed (for m >= 3 with Im g_23 != 0) by a
    common unit factor rotating g_23 into the upper complex half plane.
    The zero products are read off the record's unit-diagonal Gram
    matrix, and G is rescaled once by the composed d.  No coordinate
    calls it: for a triple it is the reference that the closed form of
    `triangle.normalize_triangle` is tested against.
    """
    lifts = Lifts(points).validated(PointClass.POSITIVE, 2)
    g0 = lifts.g
    m = len(lifts)

    d = align(lifts, [(0, t) for t in range(1, m) if lifts.nz[0, t]])
    if m >= 3:
        g23 = d[1].conj() * g0.entry(1, 2) * d[2]
        if not negligible(g23.im_vec().norm(), 1.0 + abs(g23)):
            rot = nu(g23.im_vec())
            d = [x * rot for x in d]
    return d, rescale_gram(g0, d)


# ---------------------------------------------------------------------------
# partition detection

def _refine_sub_blocks(indices, nz):
    """Greedy sub-block refinement of one block: repeatedly take the
    lowest index with the fewest zero products among the remainder and
    group it with its nonzero partners."""
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


def detect_partition(g: QMatrix, span_dim: int) -> PartitionStructure:
    """Partition structure of a positive tuple from its Gram matrix and
    the dimension of its span, read off unit_diagonal(g), so that
    rescaling the lifts leaves it unchanged.

    The tuple is parabolic when the span is degenerate: no negative
    eigenvalue and span dimension one more than the Gram rank.
    """
    u = unit_diagonal(g)
    mod = u.modulus()
    nz = nonzero_products(mod)
    return _partition(u, mod, nz, spanning_forest(nz.tolist())[0],
                      lambda: span_dim)


def _partition(u: QMatrix, mod: np.ndarray, nz: np.ndarray, blocks,
               span_dim) -> PartitionStructure:
    """`detect_partition` of a unit-diagonal u with modulus mod and zero
    pattern nz, whose components are `blocks`.  A pair with |u_ab| above
    1 by `hyperbolic_pair`'s margin makes the tuple regular without a
    spectrum; otherwise the inertia of u decides, and `span_dim()` is
    asked for the span only when no eigenvalue is negative.  A parabolic
    tuple's nz is the pairs inside one block exactly when it has
    sum |block|^2 entries."""
    if not hyperbolic_pair(mod):
        iner = inertia(u)
        if iner.n_minus == 0 and iner.rank == span_dim() - 1:
            if (np.count_nonzero(nz) != sum(len(b) ** 2 for b in blocks)
                    or np.count_nonzero(np.abs(mod[nz] - 1.0) > UNIT_EPS)):
                raise InconsistencyError(
                    "degenerate span but a product inside a block "
                    "does not have modulus 1")
            return PartitionStructure("parabolic", blocks)

    rows = nz.tolist()
    subs, ancs = zip(*(_refine_sub_blocks(blk, rows) for blk in blocks))
    return PartitionStructure("regular", blocks, tuple(subs), tuple(ancs))


# ---------------------------------------------------------------------------
# parabolic coordinates

class _Infinity:
    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def cross_ratio(z1, z2, z3, z4):
    """Quaternionic cross ratio (z1-z3)(z1-z4)^{-1}(z2-z4)(z2-z3)^{-1}.

    Arguments may be INFINITY; the two factors containing an infinite
    argument are dropped, so [z, 1, 0, INFINITY] = z."""
    z = [x if x is INFINITY else quat(x) for x in (z1, z2, z3, z4)]
    if sum(1 for x in z if x is INFINITY) > 1:
        raise DomainError("cross ratio needs at least three finite arguments")
    out = ONE
    for a, b, invert in ((0, 2, False), (0, 3, True),
                         (1, 3, False), (1, 2, True)):
        if z[a] is INFINITY or z[b] is INFINITY:
            continue
        f = z[a] - z[b]
        if invert and abs(f) == 0.0:
            raise DomainError("cross ratio undefined: coincident arguments")
        out = out * (f.inverse() if invert else f)
    return out


def _parabolic_lifts(lifts: Lifts) -> tuple[list[Quaternion], QMatrix]:
    """The factors d that align each block on its anchor blk[0], and the
    lifts scaled by them, with within-block products ~1.  Every block is a
    clique, so the record's forest is the star from each blk[0].  Only the
    products of two non-anchor points of a block carry a phase, so only
    they are checked: `align` makes an anchor product conj(d_t) g_tc d_c
    equal to |u_ct|, which `_partition` has held within UNIT_EPS of 1, and
    each diagonal entry is 1 by construction."""
    g, blocks = lifts.g, lifts.structure.blocks
    d = align(lifts, lifts.forest[1])
    for blk in blocks:
        for a, b in combinations(blk[1:], 2):
            if abs(d[a].conj() * g.entry(a, b) * d[b] - ONE) > UNIT_EPS:
                raise InconsistencyError(
                    "within-block products did not normalize to 1")
    row = np.array([d], dtype=float).view(complex)
    return d, lifts.p * QMatrix(row[..., 0], row[..., 1])


def parabolic_coordinates(points) -> Coordinate:
    """Complete invariant of a parabolic tuple: partition structure plus
    the rotation-normalized vector of horospherical cross ratios.

    Each point carries a height k = <p, w> along the shared null
    direction z0, with w the null partner Jz0/|z0|^2 - z0 <w, w>/2 of z0
    (moving z0 to the point at infinity of the Siegel domain, k is the
    first coordinate).  J^2 = I and <p, z0> = 0 make k = z0* p / |z0|^2,
    and the heights are read as z0* p: blocks of size s >= 3 contribute
    the quotients (k_1 - k_t)(k_2 - k_t)^{-1}, t = 3..s, which a common
    real factor leaves unchanged.  Inside a block the lifts differ by
    right multiples of z0, so these quotients do not depend on the choice
    of w.
    """
    lifts = _partitioned(points, "parabolic")
    structure = lifts.structure

    d, p = _parabolic_lifts(lifts)
    big = next(b for b in structure.blocks if len(b) >= 2)
    z0 = p.col(big[1]) - p.col(big[0])
    jz0 = form_matrix(lifts[0].model, lifts[0].n) @ z0
    # J is real and symmetric, so row 1 is (J z0)* p = z0* J p, each lift's
    # product with z0, tested against the column norms |p_t| |d_t| of p
    rows = QMatrix.from_columns([z0, jz0]).h @ p
    orth = rows.modulus()[1]
    if np.count_nonzero(
            orth > ORTHOGONAL_TOL * lifts.norms * [abs(x) for x in d]):
        raise InconsistencyError(
            "a lift is not orthogonal to the shared null direction")

    ks = [rows.entry(0, t) for t in range(len(lifts))]
    x = [cross_ratio(ks[blk[0]], ks[blk[1]], ks[t], INFINITY)
         for blk in structure.blocks for t in blk[2:]]
    _, xn, tag = rotation_normalize_vector(x) if x else (ONE, [], "Z_R")
    return Coordinate("parabolic", tuple(xn), tag, structure)


# ---------------------------------------------------------------------------
# regular tuples: block normalization and canonical Gram matrix

def regular_coordinate(points) -> Coordinate:
    """Canonical Gram matrix of a regular tuple.

    Block normalization aligns the lifts along the record's spanning
    forest (`gram.spanning_forest`), rooted at each block's first anchor:
    every g_ii = 1 and every tree edge's product is real positive, and the
    root keeps its real factor 1/sqrt(g_cc).  That fixes the factors of a
    block up to one common unit quaternion, which acts on the block's
    entries by simultaneous conjugation.  The block-normalized entries
    conj(d_a) g_ab d_b of the nonzero products of a block, taken
    row-major, are rotation normalized by one unit.  A vanishing product,
    across blocks or inside one, is written as 0: its rounding noise,
    turned by the units, would be no invariant."""
    lifts = _partitioned(points, "regular")
    g0, rows = lifts.g, lifts.nz.tolist()
    blocks, edges = lifts.forest
    # unit factors keep every |g_ab|, so the record's zero pattern serves
    d = align(lifts, edges)
    inner = {}
    for blk in blocks:
        own = [(a, b) for a, b in combinations(blk, 2) if rows[a][b]]
        if own:
            vec = [d[a].conj() * g0.entry(a, b) * d[b] for a, b in own]
            rot = normalizing_rotation(vec)[0]
            inner.update(zip(own, conjugate_vector(rot, vec)))
    entries = tuple(inner.get(ab, Quaternion())
                    for ab in combinations(range(len(lifts)), 2))
    return Coordinate("regular", entries, structure=lifts.structure)


# ---------------------------------------------------------------------------
# dispatch and congruence

def positive_coordinate(points) -> Coordinate:
    """Moduli coordinate of a positive tuple: of kind "parabolic" or
    "regular" according to the detected span class."""
    lifts = _partitioned(points)
    if lifts.structure.kind == "parabolic":
        return parabolic_coordinates(lifts)
    return regular_coordinate(lifts)


def tuple_coordinate(points) -> Coordinate:
    """Moduli coordinate of a tuple of null or of positive points.  The
    class of the first lift, decided at the record's eps, picks the
    coordinate, whose own class check rejects a tuple whose classes mix."""
    lifts = Lifts(points)
    if lifts.classes[0] == PointClass.NULL:
        return boundary_coordinate(lifts)
    return positive_coordinate(lifts)


def coordinate_distance(a: Coordinate, b: Coordinate) -> float:
    """Max entrywise quaternion distance of two moduli coordinates;
    infinity when their kinds, strata, structures or lengths differ."""
    def key(c):
        return c.kind, c.stratum, c.structure, len(c.entries)
    if key(a) != key(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a.entries, b.entries)),
               default=0.0)


def congruent(p, q, tol: float = COORD_TOL) -> bool:
    """Congruence test for two ordered tuples of null or of positive
    points: their coordinates agree within tol.  False when the sizes or
    the tuple classes differ."""
    p, q = Lifts(p), Lifts(q)
    if len(p) != len(q):
        return False
    return coordinate_distance(tuple_coordinate(p), tuple_coordinate(q)) <= tol
