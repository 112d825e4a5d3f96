"""Moduli coordinates for ordered tuples of distinct positive points.

Two regimes, distinguished by the span of the lifted tuple:

* parabolic tuples: the span carries a degenerate form (no negative
  vector, one null direction).  The Gram matrix splits into blocks with
  all pairwise products 1 inside a block and 0 across blocks; the
  continuous invariants are cross-ratio style quotients of the
  horospherical coordinates along the shared null direction.

* regular tuples: the span is nondegenerate.  The invariant is the Gram
  matrix itself after block normalization and rotation normalization of
  the residual per-sub-block unit freedom.

A tuple gets one Gram matrix and one partition decision, made on its
first normalization.  The congruence test at the end of the module
compares the coordinates of boundary and positive tuples alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import Coordinate, boundary_coordinate
from .errors import DegenerateInputError, DomainError, InconsistencyError, UsageError
from .gram import gram, inertia, point_classes, rescale_gram, span_dimension
from .hform import NULL_EPS, PointClass, classify, columns, herm, null_partner
from .qmatrix import QMatrix
from .quat import (ONE, Quaternion, canonical_sign, nu, quat,
                   rotation_normalize_vector)

ZERO_EPS = 1e-8        # relative threshold for a vanishing Gram entry
UNIT_EPS = 1e-6        # tolerance for a normalized product of modulus 1
COORD_TOL = 1e-8       # default tolerance for congruence of coordinates


# ---------------------------------------------------------------------------
# structures

@dataclass(frozen=True)
class PartitionStructure:
    """Zero-pattern data of a positive tuple: the kind (regular or
    parabolic), the top-level blocks (connected components of the
    nonzero-product graph), and for regular tuples the sub-block
    refinement with its anchor indices.  All indices are 0-based."""

    kind: str
    blocks: tuple[tuple[int, ...], ...]
    sub_blocks: tuple[tuple[tuple[int, ...], ...], ...] = ()
    anchors: tuple[tuple[int, ...], ...] = ()

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

class _Lifts(tuple):
    """A validated tuple of positive lifts with its Gram matrix `g` and,
    once partitioned, its first normalization (`d1`, `g1`) and partition
    `structure`.  The coordinate stages accept it in place of the points
    and read all of this from it."""

    structure = None


def _positive_lifts(points) -> _Lifts:
    if isinstance(points, _Lifts):
        return points
    lifts = _Lifts(points)
    if len(lifts) < 2:
        raise UsageError("need at least 2 positive points")
    lifts.g = gram(lifts)
    if any(c != PointClass.POSITIVE for c in point_classes(lifts, lifts.g)):
        raise DomainError("tuple must consist of positive points")
    _check_distinct(lifts, lifts.g)
    return lifts


def _partitioned(points) -> _Lifts:
    """The validated lifts, normalized and partitioned once.  The
    partition is read off the one-normalized Gram matrix, whose unit
    diagonal makes the relative zero-product rule independent of
    per-point rescaling."""
    lifts = _positive_lifts(points)
    if lifts.structure is None:
        lifts.d1, lifts.g1 = one_normalize(lifts)
        lifts.structure = detect_partition(lifts.g1, span_dimension(lifts))
    return lifts


def _nonzero_products(g: QMatrix) -> np.ndarray:
    """The zero-product rule: entry (a, b) is True when |g_ab| exceeds
    ZERO_EPS times the largest |g_ab|."""
    mod = np.sqrt(np.abs(g.c1) ** 2 + np.abs(g.c2) ** 2)
    return mod > ZERO_EPS * mod.max()


def _normalized_modulus(g: QMatrix, a: int, b: int) -> float:
    return abs(g.entry(a, b)) / math.sqrt(g.entry(a, a).re() * g.entry(b, b).re())


def _check_distinct(points, g: QMatrix) -> None:
    m = g.shape[0]
    for a in range(m):
        for b in range(a + 1, m):
            if abs(_normalized_modulus(g, a, b) - 1.0) < 1e-10:
                pair = columns([points[a], points[b]])
                if pair.rank() < 2:
                    raise DegenerateInputError(
                        f"points {a + 1} and {b + 1} coincide")


def one_normalize(points):
    """First normalization of a positive tuple.

    Returns (d, G): diagonal rescaling making every g_ii = 1 and every
    g_1i real nonnegative, followed (for m >= 3 with Im g_23 != 0) by a
    common unit factor rotating g_23 into the upper complex half plane.
    """
    lifts = _positive_lifts(points)
    g0 = lifts.g
    m = len(lifts)

    d = [quat(1.0 / math.sqrt(g0.entry(t, t).re())) for t in range(m)]
    g = rescale_gram(g0, d)
    nz = _nonzero_products(g)
    for t in range(1, m):
        if nz[0, t]:
            h = g.entry(0, t)
            d[t] = d[t] * (h.conj() / abs(h))
    g = rescale_gram(g0, d)

    if m >= 3:
        g23 = g.entry(1, 2)
        if g23.im_vec().norm() > 1e-14 * (1.0 + abs(g23)):
            rot = canonical_sign(nu(g23.im_vec()))
            d = [x * rot for x in d]
            g = rescale_gram(g0, d)
    return d, g


# ---------------------------------------------------------------------------
# partition detection

def _components(nz: np.ndarray) -> list[tuple[int, ...]]:
    m = len(nz)
    seen = [False] * m
    comps = []
    for start in range(m):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            a = stack.pop()
            comp.append(a)
            for b in range(m):
                if not seen[b] and nz[a, b]:
                    seen[b] = True
                    stack.append(b)
        comps.append(tuple(sorted(comp)))
    return sorted(comps, key=lambda c: c[0])


def _refine_sub_blocks(indices, nz):
    """Greedy sub-block refinement of one block: repeatedly take the
    lowest index with the fewest zero products among the remainder and
    group it with its nonzero partners."""
    out, anchors = [], []
    rem = list(indices)
    while rem:
        zeros = {a: sum(1 for b in rem if b != a and not nz[a, b]) for a in rem}
        mn = min(zeros.values())
        c = min(a for a in rem if zeros[a] == mn)
        sb = tuple(sorted(b for b in rem if b == c or nz[c, b]))
        out.append(sb)
        anchors.append(c)
        rem = [b for b in rem if b not in sb]
    return tuple(out), tuple(anchors)


def _block_pairs(blocks):
    return [(a, b) for blk in blocks for a in blk for b in blk if a < b]


def detect_partition(g: QMatrix, span_dim: int) -> PartitionStructure:
    """Partition structure of a positive tuple from its Gram matrix and
    the dimension of its span.

    The tuple is parabolic when the span is degenerate: no negative
    eigenvalue and span dimension one more than the Gram rank.
    """
    nz = _nonzero_products(g)
    blocks = _components(nz)
    iner = inertia(g)
    if iner.n_minus == 0 and iner.rank == span_dim - 1:
        if any(abs(_normalized_modulus(g, a, b) - 1.0) > UNIT_EPS
               for a, b in _block_pairs(blocks)):
            raise InconsistencyError(
                "degenerate span but a product inside a block "
                "does not have modulus 1")
        return PartitionStructure("parabolic", tuple(blocks))

    subs, ancs = zip(*(_refine_sub_blocks(blk, nz) for blk in blocks))
    return PartitionStructure("regular", tuple(blocks), tuple(subs), tuple(ancs))


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
    args = [z1, z2, z3, z4]
    fin = [quat(z) if z is not INFINITY else z for z in args]
    if sum(1 for z in fin if z is INFINITY) > 1:
        raise DomainError("cross ratio needs at least three finite arguments")
    z1, z2, z3, z4 = fin

    def diff(a, b):
        return None if (a is INFINITY or b is INFINITY) else a - b

    factors = [diff(z1, z3), diff(z1, z4), diff(z2, z4), diff(z2, z3)]
    inv = [False, True, False, True]
    out = ONE
    for f, do_inv in zip(factors, inv):
        if f is None:
            continue
        if do_inv:
            if abs(f) == 0.0:
                raise DomainError("cross ratio undefined: coincident arguments")
            out = out * f.inverse()
        else:
            out = out * f
    return out


def _parabolic_lifts(lifts: _Lifts):
    """Rescaled lifts with every within-block product exactly ~1."""
    g, structure = lifts.g, lifts.structure
    d = [quat(1.0 / math.sqrt(g.entry(t, t).re())) for t in range(len(lifts))]
    for blk in structure.blocks:
        a = blk[0]
        for t in blk[1:]:
            # the positive diagonal factors do not change the phase of g_at
            h = g.entry(a, t)
            d[t] = d[t] * (h.conj() / abs(h))
    g2 = rescale_gram(g, d)
    if any(abs(g2.entry(a, b) - ONE) > UNIT_EPS
           for a, b in _block_pairs(structure.blocks)):
        raise InconsistencyError("within-block products did not normalize to 1")
    return [p.rescale(x) for p, x in zip(lifts, d)]


def parabolic_coordinates(points) -> Coordinate:
    """Complete invariant of a parabolic tuple: partition structure plus
    the rotation-normalized vector of horospherical cross ratios.

    Each point carries a height k = <p, w> along the shared null
    direction z0, with w a null partner of z0 (moving z0 to the point at
    infinity of the Siegel domain, k is the first coordinate).  Blocks of
    size s >= 3 contribute the quotients (k_1 - k_t)(k_2 - k_t)^{-1},
    t = 3..s.  Inside a block the lifts differ by right multiples of z0,
    so these quotients do not depend on the choice of w.
    """
    points = _partitioned(points)
    structure = points.structure
    if structure.kind != "parabolic":
        raise DomainError("tuple is not parabolic")

    lifts = _parabolic_lifts(points)
    big = next(b for b in structure.blocks if len(b) >= 2)
    z0 = lifts[big[1]] - lifts[big[0]]
    for p in lifts:
        if abs(herm(p, z0)) > 1e-7 * p.norm():
            raise InconsistencyError(
                "a lift is not orthogonal to the shared null direction")

    w = null_partner(z0)
    ks = [herm(p, w) for p in lifts]
    x = []
    for blk in structure.blocks:
        for t in blk[2:]:
            x.append(cross_ratio(ks[blk[0]], ks[blk[1]], ks[t], INFINITY))
    if x:
        _, xn, tag = rotation_normalize_vector(x)
    else:
        xn, tag = [], "Z_R"
    return Coordinate("parabolic", tuple(xn), tag, structure)


# ---------------------------------------------------------------------------
# regular tuples: block normalization and canonical Gram matrix

def block_normalize(points):
    """Diagonal rescaling making g_ii = 1 and every anchor-row entry
    real positive inside its sub-block.

    Returns (d, G, structure).  The residual freedom is one unit
    quaternion per sub-block acting by simultaneous conjugation inside
    the sub-block and by left/right translation on cross entries."""
    lifts = _partitioned(points)
    structure = lifts.structure
    if structure.kind != "regular":
        raise DomainError("tuple is not regular")

    d = list(lifts.d1)
    for sbs, ancs in zip(structure.sub_blocks, structure.anchors):
        for sb, c in zip(sbs, ancs):
            for t in sb:
                if t == c:
                    continue
                h = lifts.g1.entry(c, t)
                d[t] = d[t] * (h.conj() / abs(h))
    return d, rescale_gram(lifts.g, d), structure


def _ordered_sub_blocks(structure):
    flat = [(c, sb) for sbs, ancs in zip(structure.sub_blocks, structure.anchors)
            for sb, c in zip(sbs, ancs)]
    return sorted(flat, key=lambda t: t[0])


def _apply_unit(g: QMatrix, idx, u: Quaternion) -> QMatrix:
    m = g.shape[0]
    d = [u if t in idx else ONE for t in range(m)]
    return rescale_gram(g, d)


def _pin(u: Quaternion, kind: str, right: bool) -> Quaternion:
    """Unit e in the residual group with u*e (right) or conj(e)*u (left)
    in canonical position."""
    if kind == "sp1":
        return u.conj() / abs(u) if right else u / abs(u)
    if kind == "u1":
        c1, c2 = u.c1, u.c2
        if abs(c2) > 1e-12 * (1.0 + abs(u)):
            ph = c2 / abs(c2)
        else:
            ph = abs(c1) / c1 if right else c1 / abs(c1)
        return Quaternion(ph.real, ph.imag)
    # kind == "sign"
    for comp in (u.a0, u.a1, u.a2, u.a3):
        if comp != 0.0:
            return ONE if comp > 0.0 else -ONE
    return ONE


def _residual_kind(tag: str) -> str:
    if tag == "Z_R":
        return "sp1"
    if tag == "P_C" or tag.startswith("Z_C"):
        return "u1"
    return "sign"


def regular_coordinate(points) -> Coordinate:
    """Canonical Gram matrix of a regular tuple.

    After block normalization, sub-blocks are processed in order of
    their anchors: the within-sub-block entries are rotation normalized,
    and the leftover unit freedom (Sp(1), U(1) or a sign, depending on
    the stratum) is pinned against the first nonzero cross entry to an
    already processed sub-block."""
    _, g, structure = block_normalize(points)
    m = g.shape[0]
    # the unit factors below keep every |g_ab|, so one zero pattern serves
    nz = _nonzero_products(g)
    done = np.zeros(m, dtype=bool)

    for c, sb in _ordered_sub_blocks(structure):
        vec = [g.entry(a, b) for a in sb for b in sb if a < b]
        if vec:
            rot, _, tag = rotation_normalize_vector(vec)
            kind = _residual_kind(tag)
        else:
            rot, kind = ONE, "sp1"
        g = _apply_unit(g, set(sb), rot)

        # first nonzero cross entry, row-major, to a processed sub-block
        in_sb = np.zeros(m, dtype=bool)
        in_sb[list(sb)] = True
        cross = nz & (np.outer(in_sb, done) | np.outer(done, in_sb))
        pins = np.flatnonzero(np.triu(cross, 1))
        if pins.size:
            a, b = divmod(int(pins[0]), m)
            e = _pin(g.entry(a, b), kind, right=bool(in_sb[b]))
            g = _apply_unit(g, set(sb), e)
        done |= in_sb

    entries = tuple(g.entry(a, b) for a in range(m) for b in range(a + 1, m))
    return Coordinate("regular", entries, structure=structure)


# ---------------------------------------------------------------------------
# dispatch and congruence

def positive_coordinate(points) -> Coordinate:
    """Moduli coordinate of a positive tuple: of kind "parabolic" or
    "regular" according to the detected span class."""
    lifts = _partitioned(points)
    if lifts.structure.kind == "parabolic":
        return parabolic_coordinates(lifts)
    return regular_coordinate(lifts)


def tuple_coordinate(points, null_eps: float = NULL_EPS) -> Coordinate:
    """Moduli coordinate of a tuple of null or of positive points.  The
    class of the first point (null within null_eps) picks the coordinate,
    whose own Gram-diagonal check rejects a tuple whose classes mix."""
    points = list(points)
    if points and classify(points[0], null_eps) == PointClass.NULL:
        return boundary_coordinate(points)
    return positive_coordinate(points)


def coordinate_distance(a: Coordinate, b: Coordinate) -> float:
    """Max entrywise quaternion distance of two moduli coordinates;
    infinity when their kinds, strata, structures or lengths differ."""
    def key(c):
        return c.kind, c.stratum, c.structure, len(c.entries)
    if key(a) != key(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a.entries, b.entries)),
               default=0.0)


def congruent(p, q, eps: float = COORD_TOL) -> bool:
    """Congruence test for two ordered tuples of null or of positive
    points: their coordinates agree within eps.  False when the sizes or
    the tuple classes differ."""
    p, q = list(p), list(q)
    if len(p) != len(q):
        return False
    return coordinate_distance(tuple_coordinate(p), tuple_coordinate(q)) <= eps
