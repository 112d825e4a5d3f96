"""Positive tuples: 1-normalization, partition detection, parabolic
cross-ratio invariants, and the regular canonical Gram coordinate."""

import cmath
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmoduli import positive
from hqmoduli.boundary import Coordinate, vector_to_gram
from hqmoduli.errors import DomainError, InconsistencyError
from hqmoduli.gram import (Lifts, PartitionStructure, _refine_sub_blocks,
                           align, gram, hyperbolic_pair, inertia,
                           nonzero_products, pattern_plan, realize,
                           rescale_gram, span_dimension, spanning_forest)
from hqmoduli.hform import (BALL, SIEGEL, HVector, PointClass, classify,
                            form_matrix, herm,
                            pair_configuration, random_isometry, to_model)
from hqmoduli.positive import (INFINITY, congruent, coordinate_distance,
                               cross_ratio, detect_partition, one_normalize,
                               parabolic_coordinates, positive_coordinate,
                               regular_coordinate, tuple_coordinate)
from hqmoduli.qmatrix import QMatrix
from hqmoduli.quat import ONE, Quaternion, quat, rotation_normalize_vector
from hqmoduli.sampling import (random_null_tuple, random_parabolic_tuple,
                               random_quaternion, random_regular_tuple,
                               random_rescaling)
from hqmoduli.tol import INERTIA_EPS, ORTHOGONAL_TOL, UNIT_EPS, ZERO_EPS

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
        assert nonzero_products(g.modulus()).tolist() == want


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
    # the unit Gram matrix of `two_dimensional_positive_part`: no negative
    # eigenvalue and rank 2, so a span of 3 is degenerate, yet u_12 = 0
    # while u_13 and u_23 are not, which no blocks of modulus 1 allow; a
    # span of 2 is regular
    s = 2 ** -0.5
    g = unit_diagonal_gram(3, {(0, 2): quat(s), (1, 2): quat(s)})
    assert inertia(g).as_tuple() == (2, 0, 1)
    with pytest.raises(InconsistencyError, match="modulus 1"):
        detect_partition(g, span_dim=3)
    structure = detect_partition(g, span_dim=2)
    assert structure.kind == "regular" and structure.blocks == ((0, 1, 2),)


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


def test_detect_partition_rejects_a_gram_matrix_with_a_nan_entry():
    # a NaN modulus certifies no hyperbolic pair, so the spectrum still
    # sees the entry
    g = gram(random_regular_tuple(2, 4, seed=2))
    g.set_entry(0, 2, Quaternion(math.nan, 0.0, 0.0, 0.0))
    assert not hyperbolic_pair(g.modulus())
    with pytest.raises(DomainError):
        detect_partition(g, span_dim=4)


def spectral_kind(lifts):
    """Reference partition rule: the inertia of the unit-diagonal Gram
    matrix and the span decide every positive tuple, and a parabolic one
    must have blocks of products of modulus 1."""
    iner = inertia(lifts.unit)
    if iner.n_minus == 0 and iner.rank == span_dimension(lifts) - 1:
        blocks, nz = lifts.plan.blocks, lifts.nz
        if (np.count_nonzero(nz) != sum(len(b) ** 2 for b in blocks)
                or np.count_nonzero(np.abs(lifts.mod[nz] - 1.0) > UNIT_EPS)):
            raise InconsistencyError("not blocks of modulus 1")
        return "parabolic"
    return "regular"


def outcome(rule, lifts):
    try:
        return rule(lifts)
    except InconsistencyError as exc:
        return type(exc)


def assert_partition_matches_the_spectrum(lifts):
    # a certified tuple has a negative eigenvalue, and the partition's
    # kind is the reference rule's, or both raise
    if hyperbolic_pair(lifts.mod):
        assert inertia(lifts.unit).n_minus == 1
    kind = outcome(lambda x: detect_partition(
        x.g, span_dimension(x)).kind, lifts)
    assert kind == outcome(spectral_kind, lifts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("regular", "parabolic")),
       n=st.integers(2, 4), m=st.integers(2, 7),
       seed=st.integers(0, 2 ** 16), model=st.sampled_from((BALL, SIEGEL)),
       exponent=st.floats(-6.0, 6.0))
def test_hyperbolic_pair_agrees_with_the_spectrum(kind, n, m, seed, model,
                                                  exponent):
    make = random_regular_tuple if kind == "regular" \
        else random_parabolic_tuple
    points = make(n, m, seed, model)
    scales = random_rescaling(m, seed=seed + 1)
    lifts = Lifts([p.rescale(x).scaled(10.0 ** exponent)
                   for p, x in zip(points, scales)])
    if kind == "parabolic":
        assert not hyperbolic_pair(lifts.mod)
    assert_partition_matches_the_spectrum(lifts)
    assert positive_coordinate(lifts).kind == kind


@pytest.mark.parametrize("n, m, seed", [(2, 4, 4), (3, 5, 2)])
def test_regular_tuple_without_a_hyperbolic_pair_reads_the_spectrum(n, m,
                                                                    seed):
    for model in (BALL, SIEGEL):
        lifts = Lifts(random_regular_tuple(n, m, seed, model))
        assert lifts.mod.max() <= 1.0 + 1e-12
        assert not hyperbolic_pair(lifts.mod)
        assert_partition_matches_the_spectrum(lifts)
        assert positive_coordinate(lifts).kind == "regular"


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_hyperbolic_pair_near_its_threshold(m, k):
    # one product of modulus t = 1 + k INERTIA_EPS m, realized: the
    # certificate holds for t - 1 > 2 INERTIA_EPS m t, that is k > 2 up to
    # rounding, and either way the partition is the spectrum's; where the
    # realization zeroes 1 - t, the realized product has modulus 1
    t = 1.0 + k * INERTIA_EPS * m
    rng = np.random.default_rng(int(10 * k) + m)
    q = random_quaternion(rng)
    g = unit_diagonal_gram(m, {(0, 1): q * (t / abs(q))})
    lifts = Lifts(realize(g, m))
    if inertia(g).n_minus == 1:
        assert abs(lifts.mod.max() - t) <= 1e-13
    if k != 2.0:
        assert hyperbolic_pair(lifts.mod) == (k > 2.0)
    assert_partition_matches_the_spectrum(lifts)


def test_parabolic_rejects_regular_input():
    with pytest.raises(DomainError):
        parabolic_coordinates(random_regular_tuple(2, 3, seed=73))


def reference_parabolic_lifts(lifts):
    """The scaled lifts as the library once made them: the composed
    factors rescale the whole Gram matrix once, every within-block entry is
    checked against 1, and the factor row is built entry by entry."""
    g, structure = lifts.g, lifts.structure
    m = len(lifts)
    d = align(lifts, [(blk[0], t) for blk in structure.blocks for t in blk[1:]])
    dev = (rescale_gram(g, d) - QMatrix.real(np.ones((m, m)))).modulus()
    label = np.empty(m, dtype=int)
    for k, blk in enumerate(structure.blocks):
        label[list(blk)] = k
    if np.count_nonzero(dev[label[:, None] == label[None, :]] > UNIT_EPS):
        raise InconsistencyError("within-block products did not normalize to 1")
    return lifts.p * QMatrix.from_entries([d])


def reference_parabolic_coordinates(lifts):
    """The parabolic coordinate as the library once made it: J p, then
    one product each for the orthogonality test and the heights, against
    the column norms of the scaled lifts."""
    structure = lifts.structure
    p = reference_parabolic_lifts(lifts)
    big = next(b for b in structure.blocks if len(b) >= 2)
    z0h = (p.col(big[1]) - p.col(big[0])).h
    orth = (z0h @ (form_matrix(lifts[0].model, lifts[0].n) @ p)).modulus()[0]
    if np.count_nonzero(
            orth > ORTHOGONAL_TOL * np.linalg.norm(p.modulus(), axis=0)):
        raise InconsistencyError(
            "a lift is not orthogonal to the shared null direction")
    ks = (z0h @ p).to_entries()[0]
    x = [cross_ratio(ks[blk[0]], ks[blk[1]], ks[t], INFINITY)
         for blk in structure.blocks for t in blk[2:]]
    _, xn, tag = rotation_normalize_vector(x) if x else (ONE, [], "Z_R")
    return Coordinate("parabolic", tuple(xn), tag, structure)


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("n, m", [(2, 3), (3, 4), (3, 5), (3, 6)])
def test_parabolic_path_matches_the_full_gram_reference(n, m, model):
    # checking only the within-block products that carry a phase scales
    # the lifts bit for bit as the full rescaled Gram matrix did, and the
    # two-row product gives the same coordinate up to rounding
    for seed in range(8):
        pts = random_parabolic_tuple(n, m, seed, model)
        d = random_rescaling(m, seed=100 + seed)
        for scale in (1.0, 1e-3, 1e3):
            lifts = positive._partitioned(
                [p.rescale(x).scaled(scale) for p, x in zip(pts, d)])
            assert lifts.structure.kind == "parabolic"
            want_p = reference_parabolic_lifts(lifts)
            _, got_p = positive._parabolic_lifts(lifts)
            assert np.array_equal(got_p.c1, want_p.c1), (seed, scale)
            assert np.array_equal(got_p.c2, want_p.c2), (seed, scale)
            want = reference_parabolic_coordinates(lifts)
            got = parabolic_coordinates(lifts)
            assert (got.stratum, got.structure) == (want.stratum,
                                                    want.structure)
            assert coordinate_distance(got, want) <= 1e-14, (seed, scale)


def partitioned_parabolic(seed):
    """A partitioned Siegel record of five points in two blocks, and a
    block of at least three points."""
    lifts = positive._partitioned(random_parabolic_tuple(3, 5, seed), "parabolic")
    return lifts, next(b for b in lifts.structure.blocks if len(b) >= 3)


def test_within_block_phase_check_fires():
    # a unit phase on a product of two non-anchor points keeps every
    # modulus, so the partition passes, and only the phase check sees it
    lifts, blk = partitioned_parabolic(seed=3)
    a, b = blk[1], blk[2]
    phase = Quaternion(math.cos(0.1), 0.0, math.sin(0.1))
    x = lifts.g.entry(a, b) * phase
    lifts.g.set_entry(a, b, x)
    lifts.g.set_entry(b, a, x.conj())
    with pytest.raises(InconsistencyError,
                       match="within-block products did not normalize to 1"):
        parabolic_coordinates(lifts)


def test_orthogonality_check_fires():
    # in the Siegel model the shared null direction is the first
    # coordinate axis, which the form pairs with the last coordinate: a
    # last entry moves a lift off its orthogonal complement
    lifts, blk = partitioned_parabolic(seed=3)
    t = blk[2]
    lifts.p.c1[-1, t] += 0.1 * lifts.norms[t]
    with pytest.raises(InconsistencyError, match="a lift is not orthogonal "
                       "to the shared null direction"):
        parabolic_coordinates(lifts)


def two_dimensional_positive_part():
    """Three distinct positive ball lifts in H^{3,1} along one null
    direction z0 whose positive parts e1, e2 and e1 + e2 are not parallel:
    |u_12| = 0 and |u_13| = |u_23| = 1/sqrt(2)."""
    z0 = ball(1, 0, 0, 1)
    e1, e2 = ball(0, 1, 0, 0), ball(0, 0, 1, 0)
    return (e1 + z0.scaled(0.3), e2 - z0.scaled(0.7),
            e1 + e2 + z0.scaled(1.9))


def test_two_dimensional_positive_part_is_a_degenerate_span():
    pts = two_dimensional_positive_part()
    assert all(classify(p) == PointClass.POSITIVE for p in pts)
    r = 2 ** -0.5
    assert np.allclose(Lifts(pts).unit.modulus(),
                       [[1, 0, r], [0, 1, r], [r, r, 1]], rtol=0.0, atol=1e-15)
    assert inertia(gram(pts)).as_tuple() == (2, 0, 1)
    assert span_dimension(pts) == 3


@pytest.mark.xfail(raises=InconsistencyError, strict=True,
                   reason="the parabolic coordinate assumes that the positive "
                          "parts of a block are parallel (ROADMAP item 16)")
def test_two_dimensional_positive_part_gets_an_invariant_coordinate():
    pts = two_dimensional_positive_part()
    moved = apply_action(pts, random_isometry(3, seed=5),
                         random_rescaling(3, seed=6))
    assert coordinate_distance(positive_coordinate(pts),
                               positive_coordinate(moved)) <= COORD_TOL


# ---------------------------------------------------------------------------
# regular tuples

def test_regular_anchor_selection():
    # pattern [[1,r,0],[r,1,s],[0,s,1]]: row 2 has no zeros, anchor is 2
    g = QMatrix.eye(3)
    g.set_entry(0, 1, quat(0.4))
    g.set_entry(1, 0, quat(0.4))
    g.set_entry(1, 2, quat(0.3))
    g.set_entry(2, 1, quat(0.3))
    pts = realize(g, 3)
    structure = detect_partition(gram(pts), span_dimension(pts))
    assert structure.kind == "regular"
    assert structure.blocks == ((0, 1, 2),)
    assert structure.sub_blocks == (((0, 1, 2),),)
    assert structure.anchors == ((1,),)
    c = regular_coordinate(pts)
    assert c.structure == structure
    # the anchor-row entries g_12 and g_23 are real nonnegative: block
    # normalization makes them so, and conjugating by the one sub-block's
    # rotation keeps a real entry real
    for h in (c.entries[0], c.entries[2]):
        assert h.a0 >= -1e-12
        assert abs(h.a1) <= 1e-9 and abs(h.a2) <= 1e-9 and abs(h.a3) <= 1e-9
    assert [abs(h) for h in c.entries] == pytest.approx([0.4, 0.0, 0.3],
                                                        abs=1e-9)


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


def test_regular_coordinate_with_complex_first_sub_block_is_invariant():
    # with g_39 = 1e-5 i the first sub-block is (0,2,3,5,9), anchor 3, whose
    # own entries are complex (tag P_C): its residual U(1) must not stay in
    # the entries that join it to the later sub-blocks
    m = 11
    products = {**SUB_BLOCK_PRODUCTS, (3, 9): Quaternion(0.0, -1e-5)}
    pts = realize(unit_diagonal_gram(m, products), m)
    want = positive_coordinate(pts)
    assert want.structure.sub_blocks == (((0, 2, 3, 5, 9), (4, 6, 7),
                                          (1, 8, 10)),)
    for moved in moved_copies(pts, m):
        assert coordinate_distance(positive_coordinate(moved), want) <= COORD_TOL


# Four points whose products g_03 and g_12 vanish, so that the nonzero
# products form the 4-cycle 0-1-3-2-0.  The sub-blocks are (0,1,2), whose
# entries are real, and (3,): the cycle's phase sits in the entries g_13
# and g_23 between them, which only a rotation of the whole block makes
# canonical.
FOUR_CYCLE = {(0, 1): Quaternion(0.3, 0.1, -0.05, 0.02),
              (0, 2): Quaternion(0.25, -0.04, 0.06, 0.03),
              (1, 3): Quaternion(0.2, 0.05, 0.1, -0.04),
              (2, 3): Quaternion(0.15, -0.02, 0.03, 0.08)}


def test_regular_coordinate_of_a_four_cycle_is_invariant():
    pts = realize(unit_diagonal_gram(4, FOUR_CYCLE), 4)
    want = positive_coordinate(pts)
    assert want.structure.sub_blocks == (((0, 1, 2), (3,)),)
    for moved in moved_copies(pts, 4):
        assert coordinate_distance(positive_coordinate(moved), want) <= COORD_TOL
        assert congruent(moved, pts)


def test_vanishing_products_across_blocks_are_written_as_zero():
    # blocks (0,1) and (2,3) joined only by products of modulus 6e-9, below
    # the zero rule: turned by the two blocks' units, their rounding noise
    # moved the coordinate by up to 1.2e-8 under the action
    tiny = 6e-9
    products = {(0, 1): Quaternion(0.3), (2, 3): Quaternion(0.4),
                (0, 2): Quaternion(0.0, tiny),
                (0, 3): Quaternion(0.0, 0.0, tiny),
                (1, 2): Quaternion(0.0, 0.0, 0.0, tiny),
                (1, 3): Quaternion(0.0, -tiny)}
    for model in (BALL, SIEGEL):
        pts = realize(unit_diagonal_gram(4, products), 4, model)
        want = positive_coordinate(pts)
        assert want.structure.blocks == ((0, 1), (2, 3))
        assert want.entries[1:5] == (Quaternion(),) * 4
        for s in range(20):
            moved = apply_action(pts, random_isometry(4, s, model),
                                 random_rescaling(4, s + 50))
            assert congruent(moved, pts), (model, s)


def test_short_parallel_imaginary_part_does_not_fix_the_rotation():
    # one sub-block, so one rotation of its six entries.  The imaginary
    # parts of g_12 and g_13 are parallel, and g_13's is 1e-6 of its
    # modulus: decided against |g_13|, the rounding noise of its direction
    # would pass for independence and turn the rotation about i; decided
    # against the largest entry, g_23 fixes it
    def c(z):
        return Quaternion(z.real, z.imag)
    products = {(0, 1): Quaternion(0.3), (0, 2): Quaternion(0.2),
                (0, 3): Quaternion(0.25), (1, 2): c(0.1 * cmath.exp(0.7j)),
                (1, 3): c(0.15 * cmath.exp(1e-6j)),
                (2, 3): Quaternion(0.1, 0.05, 0.07, 0.02)}
    for model in (BALL, SIEGEL):
        pts = realize(unit_diagonal_gram(4, products), 4, model)
        want = positive_coordinate(pts)
        assert want.structure.sub_blocks == (((0, 1, 2, 3),),)
        for s in range(20):
            moved = apply_action(pts, random_isometry(4, s, model),
                                 random_rescaling(4, s + 50))
            got = positive_coordinate(moved)
            assert coordinate_distance(got, want) <= COORD_TOL, (model, s)


# ---------------------------------------------------------------------------
# complex lifts and the normal form as a projection

def complex_tuple(kind, n, m, seed, model, imag=1.0):
    """m lifts (z, 1) of ball points with C2 = 0, moved to `model`: null
    for kind "boundary" (|z| = 1), positive for "regular" (|z| in
    [1.2, 3]); real when imag is 0."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(m, n)) + imag * 1j * rng.normal(size=(m, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    if kind == "regular":
        z *= rng.uniform(1.2, 3.0, size=(m, 1))
    return tuple(to_model(HVector.from_entries([*row, 1.0], BALL), model)
                 for row in z)


SHAPES = ((2, 3), (2, 4), (3, 5), (4, 6))


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("kind", ["boundary", "regular"])
def test_complex_and_quaternionic_records_agree(kind, model):
    # an isometry and a rescaling make a complex tuple quaternionic, so the
    # two copies take the two record paths and must keep one coordinate
    for seed, (n, m) in enumerate(SHAPES):
        lifts = Lifts(complex_tuple(kind, n, m, seed, model))
        g = random_isometry(n, seed=2500 + seed, model=model)
        d = random_rescaling(m, seed=2600 + seed)
        moved = Lifts(g.apply(p).rescale(x) for p, x in zip(lifts, d))
        assert not lifts.p.c2.any() and moved.p.c2.any()
        assert "adj" not in vars(lifts) and "adj" in vars(moved)
        want = tuple_coordinate(lifts)
        assert want.kind == kind
        assert coordinate_distance(tuple_coordinate(moved), want) <= COORD_TOL


def canonical_gram(c):
    """The Gram matrix whose normal form a boundary or regular coordinate
    is: the completion of its t-vector, or of its strict upper triangle
    under a unit diagonal."""
    if c.kind == "boundary":
        return vector_to_gram(c.entries)
    m = (1 + math.isqrt(1 + 8 * len(c.entries))) // 2
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    return unit_diagonal_gram(m, dict(zip(pairs, c.entries)))


def round_trip(points, n, model):
    """The coordinate of the points, the coordinate of the realized
    canonical Gram matrix, and the record of the realized points."""
    want = tuple_coordinate(points)
    lifts = Lifts(realize(canonical_gram(want), n, model))
    return want, tuple_coordinate(lifts), lifts


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("kind", ["boundary", "regular"])
def test_normal_form_is_idempotent(kind, model):
    # N(realize(N(x))) = N(x), with no isometry involved.  Complex and real
    # tuples (strata P_C and Z_R) have complex canonical Gram matrices,
    # whose realized points take the C2 = 0 record
    draw = random_null_tuple if kind == "boundary" else random_regular_tuple
    for seed, (n, m) in enumerate(SHAPES * 3):
        want, got, _ = round_trip(draw(n, m, seed=seed, model=model), n, model)
        assert coordinate_distance(got, want) <= COORD_TOL
        for imag, stratum in ((1.0, "P_C"), (0.0, "Z_R")):
            want, got, lifts = round_trip(
                complex_tuple(kind, n, m, seed, model, imag), n, model)
            assert not lifts.p.c2.any()
            assert kind == "regular" or want.stratum == stratum
            assert coordinate_distance(got, want) <= COORD_TOL


@pytest.mark.parametrize("products", [
    SUB_BLOCK_PRODUCTS,
    {**SUB_BLOCK_PRODUCTS, (3, 9): Quaternion(0.0, -1e-5)},
], ids=["exact-zeros", "complex-first-sub-block"])
def test_sub_block_normal_form_is_idempotent(products):
    m = 11
    want, got, _ = round_trip(realize(unit_diagonal_gram(m, products), m),
                              m, BALL)
    assert coordinate_distance(got, want) <= COORD_TOL


@st.composite
def zero_pattern_grams(draw):
    """A unit-diagonal Gram matrix of m = 3..7 positive points with a
    random zero pattern, its entries all real, all complex or generic,
    each of modulus below 0.9 / (m - 1), so that it is positive definite:
    a regular tuple, often of several blocks and sub-blocks.  A vanishing
    product has modulus 0, 1e-10, 3e-9 or 9e-9, below the zero rule's
    ZERO_EPS of the unit diagonal, with a phase of the same width."""
    m = draw(st.integers(3, 7))
    width = draw(st.sampled_from((1, 2, 4)))  # real, complex or generic
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    nonzero = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    products = {}
    for ab, keep in zip(pairs, nonzero):
        size = (rng.uniform(0.3, 1.0) * 0.9 / (m - 1) if keep
                else draw(st.sampled_from((0.0, 1e-10, 3e-9, 9e-9))))
        if size:
            v = np.zeros(4)
            v[:width] = rng.normal(size=width)
            products[ab] = Quaternion(*(v * size / np.linalg.norm(v)).tolist())
    return m, products


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gram=zero_pattern_grams(), model=st.sampled_from((BALL, SIEGEL)))
def test_regular_normal_form_over_random_zero_patterns(gram, model):
    # invariance under both models' isometries, rescalings and lift scales
    # 1e-6 and 1e6; idempotence; separation: a 1e-4 relative change of one
    # nonvanishing product's modulus moves the coordinate; and the record's
    # forest roots each block at its first anchor
    m, products = gram
    lifts = Lifts(realize(unit_diagonal_gram(m, products), m, model))
    want, again, _ = round_trip(lifts, m, model)
    assert coordinate_distance(again, want) <= COORD_TOL
    blocks, edges = lifts.plan.blocks, lifts.plan.edges
    targets = {t for _, t in edges}
    assert blocks == want.structure.blocks
    assert [[a for a in blk if a not in targets] for blk in blocks] == [
        [anchors[0]] for anchors in want.structure.anchors]
    for moved in moved_copies(lifts, m):
        assert coordinate_distance(positive_coordinate(moved), want) <= COORD_TOL
    kept = [ab for ab, q in products.items() if abs(q) > 1e-6]
    if kept:
        ab = max(kept)
        bent = {**products, ab: products[ab] * (1.0 + 1e-4)}
        other = positive_coordinate(
            realize(unit_diagonal_gram(m, bent), m, model))
        assert coordinate_distance(other, want) > COORD_TOL


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gram=zero_pattern_grams(), model=st.sampled_from((BALL, SIEGEL)))
def test_pattern_plan_is_a_fresh_walk_of_its_pattern(gram, model):
    # the cached plan holds what one walk and one refinement of the record's
    # pattern give, as hashable tuples, and a raw Gram matrix of the same
    # pattern partitions by the same plan as the record
    m, products = gram
    lifts = Lifts(realize(unit_diagonal_gram(m, products), m, model))
    rows = lifts.nz.tolist()
    blocks, edges = spanning_forest(rows)
    subs, ancs = zip(*(_refine_sub_blocks(blk, rows) for blk in blocks))
    plan = lifts.plan
    assert plan == (blocks, edges,
                    PartitionStructure("regular", blocks, subs, ancs),
                    PartitionStructure("parabolic", blocks), plan.pairs,
                    tuple(combinations(range(m), 2)))
    assert pattern_plan(lifts.nz.tobytes(), m) is plan
    assert all(isinstance(field, tuple) for field in plan)
    hash(plan)
    # the pairs of each block, row-major, are its nonzero products
    assert [ab for own in plan.pairs for ab in own] == [
        (a, b) for a, b in combinations(range(m), 2) if rows[a][b]]
    assert all(own and any(set(sum(own, ())) <= set(blk) for blk in blocks)
               for own in plan.pairs)
    want = positive_coordinate(lifts).structure
    assert want is plan.regular
    assert detect_partition(lifts.g, span_dimension(lifts)) is want


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


def test_congruent_is_false_for_tuples_of_different_sizes():
    # the library answers False where the CLI's congruent exits 2
    for draw in (random_null_tuple, random_regular_tuple):
        pts = draw(2, 4, seed=95)
        assert not congruent(pts, pts[:3]) and not congruent(pts[:3], pts)


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
