"""Boundary (null) tuples: Cartan invariant, semi-normalization, and the
congruence test."""

import math

import numpy as np
import pytest

from hqmoduli.boundary import (Coordinate, boundary_coordinate,
                               cartan_invariant, gram_to_vector,
                               semi_normalize, validate_boundary_vector,
                               vector_to_gram)
from hqmoduli.errors import DomainError, UsageError
from hqmoduli.gram import Lifts, gram, rescale_gram
from hqmoduli.hform import (BALL, SIEGEL, HVector, PointClass, classify,
                            random_isometry, self_product)
from hqmoduli.positive import congruent, coordinate_distance
from hqmoduli.quat import Quaternion, quat
from hqmoduli.sampling import random_null_tuple, random_rescaling

SEMI_TOL = 1e-8


def real_null_tuple(m, n=2):
    """Null points with all-real coordinates (a real hyperbolic form)."""
    pts = []
    for t in range(m):
        theta = 0.4 + 0.9 * t
        entries = [math.cos(theta), math.sin(theta)] + [0.0] * (n - 2) + [1.0]
        pts.append(HVector.from_entries(entries, BALL))
    return tuple(pts)


def apply_action(points, g, d):
    return tuple(g.apply(p).rescale(x) for p, x in zip(points, d))


# ---------------------------------------------------------------------------
# Cartan invariant

def test_cartan_zero_on_real_form():
    pts = real_null_tuple(3)
    assert cartan_invariant(*pts) <= 1e-9


def test_cartan_range_and_invariance():
    for trial in range(30):
        pts = random_null_tuple(3, 3, seed=500 + trial)
        alpha = cartan_invariant(*pts)
        assert 0.0 <= alpha <= math.pi / 2 + 1e-12
        g = random_isometry(3, seed=600 + trial)
        d = random_rescaling(3, seed=700 + trial)
        alpha2 = cartan_invariant(*apply_action(pts, g, d))
        assert abs(alpha - alpha2) <= 1e-10


SCALES = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8,
          1e10, 1e12)


@pytest.mark.parametrize("scale", SCALES)
def test_cartan_invariant_under_overall_lift_scale(scale):
    # the triple product scales as scale^6 and semi-normalization's g_13
    # as scale^2; their tests must too
    for model in (BALL, SIEGEL):
        pts = random_null_tuple(2, 3, seed=1, model=model)
        coord = boundary_coordinate(pts)
        scaled = tuple(p.scaled(scale) for p in pts)
        assert abs(cartan_invariant(*scaled) - coord.alpha) <= 1e-10
        got = boundary_coordinate(scaled)
        assert abs(got.alpha - coord.alpha) <= 1e-10
        assert coordinate_distance(got, coord) <= 1e-8


def test_cartan_rejects_coincident_points():
    z = HVector.from_entries([1, 0, 1], BALL)
    with pytest.raises(DomainError):
        cartan_invariant(z, z, HVector.from_entries([0, 1, 1], BALL))


# ---------------------------------------------------------------------------
# semi-normalization

def check_semi_normalized(g, tol=SEMI_TOL):
    m = g.shape[0]
    for i in range(m):
        assert abs(g.entry(i, i)) <= tol
        if i >= 1:
            assert abs(g.entry(i - 1, i) - quat(1)) <= tol
    g13 = g.entry(0, 2)
    assert abs(abs(g13) - 1.0) <= tol
    assert abs(g13.a2) <= tol and abs(g13.a3) <= tol
    assert g13.a0 <= tol and g13.a1 >= -tol


def test_semi_normalize_postconditions_and_action():
    for trial in range(20):
        m = 5
        pts = random_null_tuple(3, m, seed=800 + trial)
        d, g, alpha = semi_normalize(pts)
        check_semi_normalized(g)
        assert 0.0 <= alpha <= math.pi / 2 + 1e-12
        got = rescale_gram(gram(pts), d)
        assert (got - g).norm() <= 1e-9 * (1 + g.norm())


def test_semi_normalize_close_points_just_off_the_cone():
    # four null points about 1e-2 apart; the last lift is pushed off the
    # cone by a relative 9e-10, which classify still calls null.  The
    # normalized diagonal grows as |d_i|^2, so its postcondition must
    # allow what classify allowed, scaled by |p_i d_i|^2.
    rng = np.random.default_rng(3)
    base = rng.normal(size=8)
    base /= np.linalg.norm(base)
    entries = []
    for _ in range(4):
        u = base + 0.015 * rng.normal(size=8)
        u /= np.linalg.norm(u)
        entries.append([Quaternion(*u[0:4]), Quaternion(*u[4:8]), 1.0])
    on_cone = [HVector.from_entries(e, BALL) for e in entries]
    entries[-1][2] = 1.0 - 9e-10
    pts = [HVector.from_entries(e, BALL) for e in entries]
    assert classify(pts[-1]) == PointClass.NULL
    got = boundary_coordinate(pts)
    assert coordinate_distance(got, boundary_coordinate(on_cone)) <= 1e-6


def push_off_cone(z, direction, ratio):
    """z + s d, s > 0 found by bisection, with |<z', z'>| / |z'|^2 just
    below ratio."""
    def rel(s):
        w = z + direction.scaled(s)
        return abs(self_product(w)) / w.norm() ** 2

    lo, hi = 0.0, 1e-12
    for _ in range(100):
        if rel(hi) >= ratio:
            break
        hi *= 2.0
    assert rel(hi) >= ratio
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rel(mid) < ratio else (lo, mid)
    return z + direction.scaled(lo)


@pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5, 1e-3])
def test_every_tuple_classify_calls_null_gets_a_boundary_coordinate(eps):
    """The null tolerance that classifies the points is the one that
    semi-normalization checks: the first lift sits 0.9 eps off the cone."""
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        for n, m in ((2, 4), (3, 5)):
            for model in (BALL, SIEGEL):
                pts = random_null_tuple(n, m, seed, model)
                direction = HVector.from_entries(
                    [Quaternion(*rng.normal(size=4)) for _ in range(n + 1)],
                    model)
                pts = (push_off_cone(pts[0], direction, 0.9 * eps),) + pts[1:]
                z = pts[0]
                assert abs(self_product(z)) / z.norm() ** 2 >= 0.89 * eps
                assert all(classify(p, eps) == PointClass.NULL for p in pts)
                try:
                    boundary_coordinate(Lifts(pts, eps))
                except Exception as exc:  # noqa: BLE001 - collect every case
                    failures.append((seed, n, m, model, repr(exc)))
    assert not failures, failures[:5]


def test_semi_normalize_triple_angle_is_cartan():
    for trial in range(20):
        pts = random_null_tuple(2, 3, seed=900 + trial)
        _, _, alpha = semi_normalize(pts)
        assert abs(alpha - cartan_invariant(*pts)) <= 1e-9


def test_semi_normalize_of_semi_normalized_is_stable():
    pts = random_null_tuple(2, 4, seed=42)
    _, g1, a1 = semi_normalize(pts)
    from hqmoduli.gram import realize
    pts2 = realize(g1, 2)
    _, g2, a2 = semi_normalize(pts2)
    assert abs(a1 - a2) <= 1e-8


# ---------------------------------------------------------------------------
# t-vector and admissibility

def test_vector_round_trip():
    pts = random_null_tuple(3, 5, seed=31)
    _, g, _ = semi_normalize(pts)
    v = gram_to_vector(g)
    assert len(v) == (5 - 1) * (5 - 2) // 2
    assert (vector_to_gram(v) - g).norm() <= 1e-12


def test_vector_ordering_is_column_major():
    pts = random_null_tuple(3, 4, seed=33)
    _, g, _ = semi_normalize(pts)
    v = gram_to_vector(g)
    want = [g.entry(0, 2), g.entry(0, 3), g.entry(1, 3)]
    assert all(abs(a - b) <= 1e-14 for a, b in zip(v, want))


def test_validate_boundary_vector_true_for_real_tuples():
    pts = random_null_tuple(3, 5, seed=35)
    _, g, _ = semi_normalize(pts)
    assert validate_boundary_vector(gram_to_vector(g), 3)


def test_validate_boundary_vector_false_when_n_too_small():
    pts = random_null_tuple(3, 5, seed=37)
    _, g, _ = semi_normalize(pts)
    v = gram_to_vector(g)
    assert not validate_boundary_vector(v, 1)


def test_validate_boundary_vector_malformed_v1():
    with pytest.raises(UsageError):
        validate_boundary_vector([quat(0.5)], 2)
    with pytest.raises(UsageError):
        validate_boundary_vector([Quaternion(0.0, 0.0, 1.0, 0.0)], 2)


def test_vector_to_gram_rejects_non_triangular_length():
    with pytest.raises(UsageError):
        vector_to_gram([quat(-1), quat(0)])


# ---------------------------------------------------------------------------
# moduli coordinate and congruence

def test_real_form_tuple_lands_in_real_stratum():
    coord = boundary_coordinate(real_null_tuple(4))
    assert coord.stratum == "Z_R"
    for q in coord.entries:
        assert max(abs(q.a1), abs(q.a2), abs(q.a3)) <= 1e-8 * abs(q)
    assert coord.alpha <= 1e-8


def test_boundary_coordinate_invariant_under_action():
    for trial in range(20):
        pts = random_null_tuple(2, 4, seed=1100 + trial)
        g = random_isometry(2, seed=1200 + trial)
        d = random_rescaling(4, seed=1300 + trial)
        c1 = boundary_coordinate(pts)
        c2 = boundary_coordinate(apply_action(pts, g, d))
        assert c1.stratum == c2.stratum
        assert coordinate_distance(c1, c2) <= 1e-8


def test_congruent_boundary_oracle_and_negatives():
    pts = random_null_tuple(2, 4, seed=51)
    g = random_isometry(2, seed=52)
    d = random_rescaling(4, seed=53)
    assert congruent(pts, apply_action(pts, g, d))
    assert congruent(pts, pts)
    swapped = (pts[1], pts[0]) + pts[2:]
    assert not congruent(pts, swapped)
    other = random_null_tuple(2, 4, seed=54)
    assert not congruent(pts, other)


def test_coordinate_distance_cross_stratum_is_infinite():
    a = Coordinate("boundary", (quat(1),), "Z_R", alpha=0.0)
    b = Coordinate("boundary", (quat(1),), "P_C", alpha=0.0)
    assert coordinate_distance(a, b) == math.inf
