"""Positive tuples: 1-normalization, partition detection, parabolic
cross-ratio invariants, and the regular canonical Gram coordinate."""

import math

import numpy as np
import pytest

from hqmoduli.errors import DomainError, InconsistencyError
from hqmoduli.gram import gram, inertia, realize, rescale_gram, span_dimension
from hqmoduli.hform import (BALL, SIEGEL, HVector, PointClass, classify, herm,
                            pair_configuration, random_isometry, to_model)
from hqmoduli.positive import (INFINITY, ZERO_EPS, _nonzero_products,
                               block_normalize, congruent,
                               coordinate_distance, cross_ratio, detect_partition, one_normalize,
                               parabolic_coordinates, positive_coordinate,
                               regular_coordinate)
from hqmoduli.qmatrix import QMatrix
from hqmoduli.quat import I, J, ONE, Quaternion, quat
from hqmoduli.sampling import (random_null_tuple, random_parabolic_tuple,
                               random_quaternion, random_regular_tuple,
                               random_rescaling)

COORD_TOL = 1e-8


def ball(*entries):
    return HVector.from_entries(entries, BALL)


def siegel(*entries):
    return HVector.from_entries(entries, SIEGEL)


def siegel_chi_triple():
    """Single-block parabolic triple in the Siegel domain with height
    coordinates 0, 2*sqrt(2), 3*sqrt(2)."""
    s = math.sqrt(2.0)
    return (siegel(0, 1, 0), siegel(2 * s, 1, 0), siegel(3 * s, 1, 0))


def example_parabolic_triple():
    p1 = ball(0, 1, 0)
    z = ball(1, 0, 1)
    return (p1, p1 + z.scaled(2.0), p1 + z.scaled(3.0))


def apply_action(points, g, d):
    return tuple(g.apply(p).rescale(x) for p, x in zip(points, d))


# ---------------------------------------------------------------------------
# one_normalize

def test_one_normalize_orthonormal_frame():
    pts = (ball(1, 0, 0, 0), ball(0, 1, 0, 0), ball(0, 0, 1, 0))
    d, g = one_normalize(pts)
    assert (g - QMatrix.eye(3)).norm() <= 1e-12
    assert all(abs(abs(x) - 1.0) <= 1e-12 for x in d)


def test_one_normalize_parabolic_triple_already_normalized():
    _, g = one_normalize(example_parabolic_triple())
    ones = QMatrix.zeros(3, 3)
    ones.c1[:, :] = 1.0
    assert (g - ones).norm() <= 1e-10


def test_one_normalize_postconditions_random():
    for trial in range(20):
        pts = random_regular_tuple(3, 4, seed=1400 + trial)
        d, g = one_normalize(pts)
        m = 4
        for t in range(m):
            assert abs(g.entry(t, t) - ONE) <= 1e-10
        for t in range(1, m):
            h = g.entry(0, t)
            assert abs(h.a1) <= 1e-9 and abs(h.a2) <= 1e-9 and abs(h.a3) <= 1e-9
            assert h.a0 >= -1e-12
        g23 = g.entry(1, 2)
        assert g23.a1 >= -1e-10  # upper complex half plane
        assert abs(g23.a2) <= 1e-9 and abs(g23.a3) <= 1e-9
        # the rescaled tuple reproduces the normalized Gram
        got = gram([p.rescale(x) for p, x in zip(pts, d)])
        assert (got - g).norm() <= 1e-9
        # admissibility of the realized class
        iner = inertia(g)
        assert 1 <= iner.rank <= 4 and iner.n_minus <= 1


# ---------------------------------------------------------------------------
# partition detection

def test_zero_product_rule_matches_entrywise_reference():
    # the helper reads |g_ab| off c1/c2 in one numpy pass; the entrywise
    # loop over Quaternion moduli is the reference, with entries placed a
    # relative 1e-6 either side of the threshold
    rng = np.random.default_rng(97)
    for _ in range(20):
        shape = (5, 5)
        g = QMatrix(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                    rng.normal(size=shape) + 1j * rng.normal(size=shape))
        g.set_entry(0, 0, quat(10.0))       # the largest modulus
        for k, side in enumerate((1 - 1e-6, 1 + 1e-6) * 3):
            q = Quaternion(*rng.normal(size=4))
            g.set_entry(1 + k % 4, k % 5,
                        q / abs(q) * (ZERO_EPS * 10.0 * side))
        scale = max(abs(q) for row in g.to_entries() for q in row)
        want = [[abs(q) > ZERO_EPS * scale for q in row]
                for row in g.to_entries()]
        assert _nonzero_products(g).tolist() == want


def test_detect_identity_is_regular_singletons():
    s = detect_partition(QMatrix.eye(4), span_dim=4)
    assert s.kind == "regular"
    assert s.blocks == ((0,), (1,), (2,), (3,))
    assert s.sub_blocks == (((0,),), ((1,),), ((2,),), ((3,),))


def test_detect_all_ones_is_parabolic_single_block():
    ones = QMatrix.zeros(3, 3)
    ones.c1[:, :] = 1.0
    s = detect_partition(ones, span_dim=2)
    assert s.kind == "parabolic"
    assert s.blocks == ((0, 1, 2),)


def test_detect_two_block_parabolic():
    pts = random_parabolic_tuple(3, 4, seed=61, k=2)
    g = gram(pts)
    s = detect_partition(g, span_dim=span_dimension(pts))
    assert s.kind == "parabolic"
    assert len(s.blocks) == 2


def test_detect_inconsistent_parabolic_raises():
    g = QMatrix.zeros(3, 3)
    g.c1[:, :] = 1.0
    g.set_entry(0, 1, quat(0.5))
    g.set_entry(1, 0, quat(0.5))
    if inertia(g).n_minus == 0:
        with pytest.raises(InconsistencyError):
            detect_partition(g, span_dim=inertia(g).rank + 1)


# ---------------------------------------------------------------------------
# cross ratio

def test_cross_ratio_normalization():
    assert abs(cross_ratio(quat(5), quat(1), quat(0), INFINITY) - quat(5)) <= 1e-14


def test_cross_ratio_real_inputs_give_real_output():
    x = cross_ratio(quat(0.3), quat(1.7), quat(-2.0), quat(4.0))
    assert max(abs(x.a1), abs(x.a2), abs(x.a3)) <= 1e-12 * abs(x)


def test_cross_ratio_affine_covariance():
    rng = np.random.default_rng(63)
    for _ in range(50):
        zs = [random_quaternion(rng) for _ in range(4)]
        if min(abs(zs[0] - zs[2]), abs(zs[0] - zs[3]),
               abs(zs[1] - zs[2]), abs(zs[1] - zs[3])) < 1e-3:
            continue
        lam = random_quaternion(rng) + 2.0
        c = random_quaternion(rng)
        fz = [lam * z + c for z in zs]
        lhs = cross_ratio(*fz)
        rhs = lam * cross_ratio(*zs) * lam.inverse()
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_cross_ratio_error_cases():
    # an inverted factor vanishes when z1 == z4 or z2 == z3
    with pytest.raises(DomainError):
        cross_ratio(quat(2), quat(1), quat(0), quat(2))
    with pytest.raises(DomainError):
        cross_ratio(quat(2), quat(1), quat(1), quat(5))
    with pytest.raises(DomainError):
        cross_ratio(INFINITY, INFINITY, quat(0), quat(1))


# ---------------------------------------------------------------------------
# parabolic tuples

def test_chi_paper_values():
    pts = siegel_chi_triple()
    c = parabolic_coordinates(pts)
    assert len(c.entries) == 1
    assert abs(c.entries[0] - quat(3.0)) <= 1e-12
    c_rev = parabolic_coordinates(tuple(reversed(pts)))
    assert abs(c_rev.entries[0] - quat(1.5)) <= 1e-12
    assert not congruent(pts, tuple(reversed(pts)))


def test_parabolic_null_fibre_orthogonality():
    pts = random_parabolic_tuple(3, 5, seed=65, k=2)
    g = gram(pts)
    blk = [t for t in range(5) if abs(g.entry(0, t) - ONE) <= 1e-9]
    z0 = pts[blk[1]] - pts[blk[0]]
    assert classify(z0) == PointClass.NULL
    for p in pts:
        assert abs(herm(z0, p)) <= 1e-9


def test_parabolic_real_heights_give_real_stratum():
    pts = siegel_chi_triple()
    c = parabolic_coordinates(pts)
    assert c.stratum == "Z_R"
    assert all(max(abs(q.a1), abs(q.a2), abs(q.a3)) <= 1e-9 * abs(q)
               for q in c.entries)


def test_parabolic_chi_avoids_zero_and_one():
    for trial in range(10):
        pts = random_parabolic_tuple(3, 5, seed=1500 + trial)
        c = parabolic_coordinates(pts)
        for q in c.entries:
            assert abs(q) > 1e-6 and abs(q - ONE) > 1e-6


def test_parabolic_invariance_under_action():
    for trial in range(10):
        pts = random_parabolic_tuple(3, 5, seed=1600 + trial)
        g = random_isometry(3, seed=1700 + trial, model=SIEGEL)
        d = random_rescaling(5, seed=1800 + trial)
        moved = apply_action(pts, g, d)
        ca, cb = parabolic_coordinates(pts), parabolic_coordinates(moved)
        assert ca.structure == cb.structure
        assert ca.stratum == cb.stratum
        assert all(abs(a - b) <= COORD_TOL for a, b in zip(ca.entries, cb.entries))
        assert congruent(pts, moved)


def test_parabolic_small_blocks_structure_decides():
    # all blocks of size <= 2: the structure is a complete invariant
    a = random_parabolic_tuple(3, 3, seed=71, k=2)   # sizes (2, 1)
    b = random_parabolic_tuple(3, 3, seed=72, k=2)
    ca, cb = parabolic_coordinates(a), parabolic_coordinates(b)
    assert ca.entries == () and cb.entries == ()
    assert congruent(a, b)


def test_one_long_lift_keeps_partition_and_coordinate():
    # a lift 1e5 times longer than the others inflates every threshold
    # taken relative to the raw Gram matrix; the partition is decided on
    # the one-normalized matrix, whose diagonal is all ones
    para = random_parabolic_tuple(3, 5, seed=65, k=2)
    reg = random_regular_tuple(3, 4, seed=67)
    for pts, stage in ((para, parabolic_coordinates),
                       (reg, regular_coordinate)):
        for i in range(len(pts)):
            long = tuple(p.scaled(1e5) if t == i else p
                         for t, p in enumerate(pts))
            for f in (positive_coordinate, stage):
                want, got = f(pts), f(long)
                assert got.structure == want.structure
                assert coordinate_distance(got, want) <= COORD_TOL


def opposite_scales(points, scales):
    """The tuple with its first lift times s and its last times 1/s for
    each s, then the tuple with every lift moved to the other model."""
    for s in scales:
        yield (points[0].scaled(s),) + points[1:-1] + (points[-1].scaled(1.0 / s),)
    yield tuple(to_model(p, SIEGEL if p.model == BALL else BALL) for p in points)


def same_pair(a, b) -> bool:
    return a.kind == b.kind and all(
        x == y or math.isclose(x, y, rel_tol=1e-9)
        for x, y in ((a.angle, b.angle), (a.distance, b.distance)))


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_opposite_lift_scales_keep_span_pairs_and_coordinate(n, model):
    # companion of the sweep above: two lifts scaled oppositely spread the
    # raw Gram entries over s^-2 ... s^2, so a rank read off the raw lifts
    # drops; every rank and signature is read off unit lifts
    for seed in range(10):
        pts = random_regular_tuple(n, n, seed, model)
        want = positive_coordinate(pts)
        for moved in opposite_scales(pts, (1e-3, 1e-5, 1e-6)):
            assert span_dimension(moved) == span_dimension(pts), seed
            assert same_pair(pair_configuration(moved[0], moved[-1]),
                             pair_configuration(pts[0], pts[-1])), seed
            got = positive_coordinate(moved)
            assert got.structure == want.structure, seed
            assert coordinate_distance(got, want) <= COORD_TOL, seed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_detect_partition_on_a_raw_gram_keeps_opposite_lift_scales(n):
    # the public function reads its zero pattern and its inertia off
    # unit_diagonal(g), so the raw Gram matrix of a rescaled tuple gives
    # the partition of the tuple itself
    for seed in range(10):
        pts = random_regular_tuple(n, n, seed)
        want = detect_partition(gram(pts), span_dimension(pts))
        assert want == positive_coordinate(pts).structure, seed
        for moved in opposite_scales(pts, (1e-3, 1e-5, 1e-6)):
            assert detect_partition(gram(moved), span_dimension(moved)) \
                == want, seed


def test_detect_partition_rejects_a_nonpositive_diagonal():
    g = QMatrix.eye(3)
    g.set_entry(1, 1, quat(0.0))
    with pytest.raises(DomainError):
        detect_partition(g, span_dim=3)


def test_parabolic_rejects_regular_input():
    with pytest.raises(DomainError):
        parabolic_coordinates(random_regular_tuple(2, 3, seed=73))


# ---------------------------------------------------------------------------
# regular tuples

def test_block_normalize_anchor_selection():
    # pattern [[1,r,0],[r,1,s],[0,s,1]]: row 2 has no zeros, anchor is 2
    g = QMatrix.eye(3)
    g.set_entry(0, 1, quat(0.4))
    g.set_entry(1, 0, quat(0.4))
    g.set_entry(1, 2, quat(0.3))
    g.set_entry(2, 1, quat(0.3))
    pts = realize(g, 3)
    d, gb, structure = block_normalize(pts)
    assert structure.kind == "regular"
    assert structure.blocks == ((0, 1, 2),)
    assert structure.sub_blocks == (((0, 1, 2),),)
    assert structure.anchors == ((1,),)
    # anchor row real nonnegative inside its sub-block
    for t in (0, 2):
        h = gb.entry(1, t)
        assert h.a0 >= -1e-12
        assert abs(h.a1) <= 1e-9 and abs(h.a2) <= 1e-9 and abs(h.a3) <= 1e-9
    got = gram([p.rescale(x) for p, x in zip(pts, d)])
    assert (got - gb).norm() <= 1e-9


def test_regular_coordinate_orthonormal_frame():
    pts = (ball(1, 0, 0, 0), ball(0, 1, 0, 0), ball(0, 0, 1, 0))
    c = regular_coordinate(pts)
    assert c.kind == "regular"
    assert all(abs(q) <= 1e-10 for q in c.entries)


def test_regular_invariance_under_action():
    for trial in range(10):
        pts = random_regular_tuple(2, 4, seed=1900 + trial)
        g = random_isometry(2, seed=2000 + trial)
        d = random_rescaling(4, seed=2100 + trial)
        moved = apply_action(pts, g, d)
        ca, cb = regular_coordinate(pts), regular_coordinate(moved)
        assert ca.structure == cb.structure
        assert all(abs(a - b) <= COORD_TOL for a, b in zip(ca.entries, cb.entries))
        assert congruent(pts, moved)


def test_regular_coordinate_round_trip_through_realize():
    pts = random_regular_tuple(3, 4, seed=81)
    c = regular_coordinate(pts)
    # rebuild the canonical Gram and realize it: same congruence class
    m = 4
    g = QMatrix.eye(m)
    it = iter(c.entries)
    for a in range(m):
        for b in range(a + 1, m):
            q = next(it)
            g.set_entry(a, b, q)
            g.set_entry(b, a, q.conj())
    pts2 = realize(g, 3)
    assert congruent(pts, pts2)


# Eleven unit-diagonal points whose products vanish exactly off these
# pairs.  The one block refines into the sub-blocks (0,1,2,3), (4,5,6,7)
# and (8,9,10) with anchors 0, 4, 8: the first has two independent
# imaginary entries off its anchor row (residual sign), the second pins
# to the first through g_35 (sign) and the third to the first through
# g_18 (residual U(1), from its one complex entry g_9,10).
SUB_BLOCK_PRODUCTS = {
    (0, 1): Quaternion(0.2), (0, 2): Quaternion(0.15), (0, 3): Quaternion(0.1),
    (1, 2): Quaternion(0.1, 0.05, 0.02, 0.03),
    (2, 3): Quaternion(0.05, -0.04, 0.06, 0.01),
    (4, 5): Quaternion(0.1, 0.02, -0.03, 0.04),
    (4, 6): Quaternion(0.15, 0.05, 0.04, -0.02),
    (4, 7): Quaternion(0.1, 0.0, 0.05, 0.0),
    (5, 6): Quaternion(0.05, 0.03, 0.0, 0.04),
    (6, 7): Quaternion(0.08, -0.02, 0.05, 0.01),
    (8, 9): Quaternion(0.12, 0.01, 0.02, -0.03),
    (8, 10): Quaternion(0.1, -0.03, 0.0, 0.02),
    (9, 10): Quaternion(0.07, 0.02, -0.04, 0.03),
    (3, 5): Quaternion(0.12, -0.03, 0.01, 0.05),
    (1, 8): Quaternion(0.09, 0.04, -0.02, 0.01)}


def unit_diagonal_gram(m, products):
    g = QMatrix.eye(m)
    for (a, b), q in products.items():
        g.set_entry(a, b, q)
        g.set_entry(b, a, q.conj())
    return g


def moved_copies(points, n):
    """The tuple moved by isometries of both models and by per-point
    rescalings, with its lifts also scaled by 1e-6 and 1e6."""
    for seed in (0, 1):
        for model in (BALL, SIEGEL):
            g = random_isometry(n, seed=2300 + seed, model=model)
            d = random_rescaling(len(points), seed=2400 + seed)
            for s in (1e-6, 1.0, 1e6):
                yield tuple(g.apply(to_model(p, model)).rescale(x).scaled(s)
                            for p, x in zip(points, d))


@pytest.mark.parametrize("products, sub_blocks, anchors", [
    (SUB_BLOCK_PRODUCTS,
     ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10)), (0, 4, 8)),
    # one more product, 1e-5 of the largest: 2 gains a fourth partner and
    # becomes the first anchor
    ({**SUB_BLOCK_PRODUCTS, (2, 8): Quaternion(0.0, 1e-5)},
     ((0, 1, 2, 3, 8), (4, 5, 6, 7), (9, 10)), (2, 4, 9)),
], ids=["exact-zeros", "small-product"])
def test_sub_block_partition_survives_isometries_and_scale(products,
                                                           sub_blocks,
                                                           anchors):
    # the corpus tuples have no vanishing product inside a block; these
    # pin the zero-product threshold from both sides: exact zeros that
    # carry rounding noise, and a small product that must stay nonzero
    m = 11
    pts = realize(unit_diagonal_gram(m, products), m)
    want = positive_coordinate(pts)
    assert want.structure.blocks == (tuple(range(m)),)
    assert want.structure.sub_blocks == (sub_blocks,)
    assert want.structure.anchors == (anchors,)
    for moved in moved_copies(pts, m):
        got = positive_coordinate(moved)
        assert got.structure == want.structure
        assert coordinate_distance(got, want) <= COORD_TOL


@pytest.mark.xfail(strict=True, reason="the residual U(1) of the first "
                   "sub-block is never pinned, so a later sub-block whose "
                   "own residual is U(1) cannot make the cross entries "
                   "canonical")
def test_regular_coordinate_with_complex_first_sub_block_is_invariant():
    # with g_39 = 1e-5 i the first sub-block is (0,2,3,5,9), anchor 3, tag
    # P_C; (4,6,7) pins to it from the left through g_45 with residual U(1)
    m = 11
    products = {**SUB_BLOCK_PRODUCTS, (3, 9): Quaternion(0.0, -1e-5)}
    pts = realize(unit_diagonal_gram(m, products), m)
    want = positive_coordinate(pts)
    assert want.structure.sub_blocks == (((0, 2, 3, 5, 9), (4, 6, 7),
                                          (1, 8, 10)),)
    for moved in moved_copies(pts, m):
        assert coordinate_distance(positive_coordinate(moved), want) <= COORD_TOL


# ---------------------------------------------------------------------------
# dispatch and congruence

def test_positive_coordinate_dispatch():
    assert positive_coordinate(example_parabolic_triple()).kind == "parabolic"
    assert positive_coordinate(random_regular_tuple(2, 3, seed=83)).kind == "regular"


def test_congruent_reflexive_and_kind_mismatch():
    para = random_parabolic_tuple(3, 4, seed=85, model=BALL)
    reg = random_regular_tuple(3, 4, seed=86)
    assert congruent(para, para)
    assert congruent(reg, reg)
    assert not congruent(para, reg)
    assert not congruent(reg, random_regular_tuple(3, 4, seed=87))


def test_congruent_rejects_mixed_tuples_and_separates_classes():
    null = random_null_tuple(2, 3, seed=93)
    reg = random_regular_tuple(2, 3, seed=94)
    assert not congruent(null, reg) and not congruent(reg, null)
    # the first point picks the coordinate, whose validation sees the rest
    for mixed in ((null[0], reg[1], reg[2]), (reg[0], null[1], null[2])):
        with pytest.raises(DomainError):
            congruent(mixed, mixed)


def test_congruent_symmetric_transitive():
    pts = random_regular_tuple(2, 4, seed=88)
    g1 = random_isometry(2, seed=89)
    g2 = random_isometry(2, seed=90)
    d1 = random_rescaling(4, seed=91)
    d2 = random_rescaling(4, seed=92)
    a = apply_action(pts, g1, d1)
    b = apply_action(pts, g2, d2)
    assert congruent(pts, a) and congruent(a, pts)
    assert congruent(a, b) and congruent(pts, b)
