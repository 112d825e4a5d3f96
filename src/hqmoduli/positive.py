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
from .errors import DegenerateInputError, DomainError, InconsistencyError
from .gram import Lifts, inertia, rescale_gram, span_dimension, unit_diagonal
from .hform import HVector, PointClass, form_matrix, null_partner
from .qmatrix import QMatrix
from .quat import ONE, Quaternion, negligible, nu, quat, rotation_normalize_vector
from .tol import COORD_TOL, ORTHOGONAL_TOL, UNIT_EPS, ZERO_EPS


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

def _partitioned(points) -> Lifts:
    """The lifts, validated, normalized and partitioned once.  The
    partition is read off the one-normalized Gram matrix, whose unit
    diagonal makes the relative zero-product rule independent of
    per-point rescaling."""
    lifts = Lifts(points)
    if lifts.structure is None:
        lifts.d1, g1 = one_normalize(lifts)
        lifts.structure = detect_partition(g1, span_dimension(lifts))
    return lifts


def _nonzero_products(g: QMatrix) -> np.ndarray:
    """The zero-product rule: entry (a, b) is True when |g_ab| exceeds
    ZERO_EPS times the largest |g_ab|."""
    mod = g.modulus()
    return mod > ZERO_EPS * mod.max()


def _align(d, g: QMatrix, pairs) -> list[Quaternion]:
    """The factors d with d_t turned, for each pair (c, t), so that the
    rescaled entry conj(d_c) g_ct d_t of the raw Gram matrix g is real
    and positive.  No d_c may itself be turned by a later pair."""
    d = list(d)
    for c, t in pairs:
        h = d[c].conj() * g.entry(c, t) * d[t]
        d[t] = d[t] * (h.conj() / abs(h))
    return d


def _same_block(blocks, m: int) -> np.ndarray:
    """(m, m) mask of the index pairs that lie in one block."""
    label = np.empty(m, dtype=int)
    for k, blk in enumerate(blocks):
        label[list(blk)] = k
    return label[:, None] == label[None, :]


def _check_distinct(lifts: Lifts) -> None:
    near = np.abs(unit_diagonal(lifts.g).modulus() - 1.0) <= UNIT_EPS
    for a, b in zip(*np.nonzero(np.triu(near, 1))):
        if lifts.p.cols([a, b]).rank() < 2:
            raise DegenerateInputError(f"points {a + 1} and {b + 1} coincide")


def one_normalize(points):
    """First normalization of a positive tuple.

    Returns (d, G): diagonal rescaling making every g_ii = 1 and every
    g_1i real nonnegative, followed (for m >= 3 with Im g_23 != 0) by a
    common unit factor rotating g_23 into the upper complex half plane.
    The factors are composed first; G is rescaled to unit diagonal for
    the zero products, then once more by the composed d.
    """
    lifts = Lifts(points).validated(PointClass.POSITIVE, 2, _check_distinct)
    g0 = lifts.g
    m = len(lifts)

    d = [quat(1.0 / math.sqrt(x)) for x in g0.c1.diagonal().real]
    nz = _nonzero_products(unit_diagonal(g0))
    d = _align(d, g0, [(0, t) for t in range(1, m) if nz[0, t]])
    if m >= 3:
        g23 = d[1].conj() * g0.entry(1, 2) * d[2]
        if not negligible(g23.im_vec().norm(), 1.0 + abs(g23)):
            rot = nu(g23.im_vec())
            d = [x * rot for x in d]
    return d, rescale_gram(g0, d)


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
        same = _same_block(blocks, g.shape[0])
        if np.any(np.abs(unit_diagonal(g).modulus()[same] - 1.0) > UNIT_EPS):
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


def _parabolic_lifts(lifts: Lifts) -> QMatrix:
    """Columns of the lifts rescaled to within-block products ~1; the
    composed factors rescale the Gram matrix once, for the check."""
    g, structure = lifts.g, lifts.structure
    m = len(lifts)
    d = [quat(1.0 / math.sqrt(x)) for x in g.c1.diagonal().real]
    d = _align(d, g, [(blk[0], t) for blk in structure.blocks for t in blk[1:]])
    dev = (rescale_gram(g, d) - QMatrix.real(np.ones((m, m)))).modulus()
    if np.any(dev[_same_block(structure.blocks, m)] > UNIT_EPS):
        raise InconsistencyError("within-block products did not normalize to 1")
    return lifts.p * QMatrix.from_entries([d])


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
    lifts = _partitioned(points)
    structure = lifts.structure
    if structure.kind != "parabolic":
        raise DomainError("tuple is not parabolic")

    p = _parabolic_lifts(lifts)
    big = next(b for b in structure.blocks if len(b) >= 2)
    z0 = p.col(big[1]) - p.col(big[0])
    jp = form_matrix(lifts[0].model, lifts[0].n) @ p
    orth = (z0.h @ jp).modulus()[0]
    if np.any(orth > ORTHOGONAL_TOL * np.linalg.norm(p.modulus(), axis=0)):
        raise InconsistencyError(
            "a lift is not orthogonal to the shared null direction")

    w = null_partner(HVector(z0, lifts[0].model))
    ks = (w.qm.h @ jp).to_entries()[0]
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

    Returns (d, G, structure), G rescaled once by the composed d.  The
    residual freedom is one unit quaternion per sub-block acting by
    simultaneous conjugation inside the sub-block and by left/right
    translation on cross entries."""
    lifts = _partitioned(points)
    structure = lifts.structure
    if structure.kind != "regular":
        raise DomainError("tuple is not regular")

    pairs = [(c, t) for c, sb in _ordered_sub_blocks(structure)
             for t in sb if t != c]
    d = _align(lifts.d1, lifts.g, pairs)
    return d, rescale_gram(lifts.g, d), structure


def _ordered_sub_blocks(structure):
    flat = [(c, sb) for sbs, ancs in zip(structure.sub_blocks, structure.anchors)
            for sb, c in zip(sbs, ancs)]
    return sorted(flat, key=lambda t: t[0])


def _pin(u: Quaternion, kind: str, right: bool) -> Quaternion:
    """Unit e in the residual group with u*e (right) or conj(e)*u (left)
    in canonical position."""
    if kind == "sp1":
        return u.conj() / abs(u) if right else u / abs(u)
    if kind == "u1":
        c1, c2 = u.c1, u.c2
        if not negligible(abs(c2), 1.0 + abs(u)):
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
    already processed sub-block.  Each sub-block gets one unit, the
    rotation times the pin, and the composed factors rescale once."""
    lifts = _partitioned(points)
    d, g, structure = block_normalize(lifts)
    m = g.shape[0]
    # the unit factors below keep every |g_ab|, so one zero pattern serves
    nz = _nonzero_products(g)
    done = np.zeros(m, dtype=bool)
    u = [ONE] * m

    for c, sb in _ordered_sub_blocks(structure):
        in_sb = np.zeros(m, dtype=bool)
        in_sb[list(sb)] = True
        vec = [g.entry(a, b) for a in sb for b in sb if a < b]
        if vec:
            rot, _, tag = rotation_normalize_vector(vec)
            kind = _residual_kind(tag)
        else:
            rot, kind = ONE, "sp1"
        u = [rot if s else x for x, s in zip(u, in_sb)]

        # first nonzero cross entry, row-major, to a processed sub-block
        cross = nz & (np.outer(in_sb, done) | np.outer(done, in_sb))
        pins = np.flatnonzero(np.triu(cross, 1))
        if pins.size:
            a, b = divmod(int(pins[0]), m)
            e = _pin(u[a].conj() * g.entry(a, b) * u[b], kind,
                     right=bool(in_sb[b]))
            u = [x * e if s else x for x, s in zip(u, in_sb)]
        done |= in_sb

    g = rescale_gram(lifts.g, [x * y for x, y in zip(d, u)])
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


def congruent(p, q, eps: float = COORD_TOL) -> bool:
    """Congruence test for two ordered tuples of null or of positive
    points: their coordinates agree within eps.  False when the sizes or
    the tuple classes differ."""
    p, q = Lifts(p), Lifts(q)
    if len(p) != len(q):
        return False
    return coordinate_distance(tuple_coordinate(p), tuple_coordinate(q)) <= eps
