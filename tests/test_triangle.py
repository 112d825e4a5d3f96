"""Triangles of quaternionic lines in H^{2,1}: angular invariant,
normalized Gram, existence, classification, and side geometry."""

import itertools
import math

import numpy as np
import pytest

from hqmoduli.cli import build_parser
from hqmoduli.errors import RealizationError, UsageError
from hqmoduli.gram import (gram, inertia, realization_error, span_dimension,
                           triple_product, triple_product_vanishes)
from hqmoduli.hform import (BALL, SIEGEL, HVector, PairConfiguration,
                            pair_configuration)
from hqmoduli.qmatrix import QMatrix
from hqmoduli.quat import I, Quaternion, quat
from hqmoduli.sampling import (random_positive_point, random_regular_tuple,
                               random_rescaling)
from hqmoduli.triangle import (TriangleClass, TriangleParams, classify_triangle,
                               gram_from_params, normalize_triangle,
                               realize_triangle,
                               triangle_angular_invariant, triangle_det,
                               triangle_exists, triangle_params)


def ball(*entries):
    return HVector.from_entries(entries, BALL)


def example_parabolic_triple():
    p1 = ball(0, 1, 0)
    z = ball(1, 0, 1)
    return (p1, p1 + z.scaled(2.0), p1 + z.scaled(3.0))


def random_positive_triple(seed):
    rng = np.random.default_rng(seed)
    return tuple(random_positive_point(2, rng) for _ in range(3))


# ---------------------------------------------------------------------------
# angular invariant

def test_angular_invariant_worked_example():
    p1, p2, p3 = ball(0, 1, 0), ball(1, 1, 1), ball(I, 1, 1)
    t = triple_product(gram([p1, p2, p3]))
    assert abs(t - I) <= 1e-12
    assert abs(triangle_angular_invariant(p1, p2, p3) - math.pi / 2) <= 1e-12


def test_angular_invariant_fallback_on_orthogonal_triple():
    p = (ball(1, 0, 0, 0), ball(0, 1, 0, 0), ball(0, 0, 1, 0))
    assert triple_product_vanishes(gram(p), p)
    assert abs(triangle_angular_invariant(*p) - math.pi / 2) <= 1e-12


SCALES = (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6)


@pytest.mark.parametrize("scale", SCALES)
def test_angular_invariant_under_overall_lift_scale(scale):
    pts = random_positive_triple(101)
    a = triangle_angular_invariant(*pts)
    assert abs(a - 1.65385) <= 1e-5
    scaled = tuple(p.scaled(scale) for p in pts)
    assert abs(triangle_angular_invariant(*scaled) - a) <= 1e-10
    orth = tuple(p.scaled(scale) for p in (ball(1, 0, 0, 0), ball(0, 1, 0, 0),
                                           ball(0, 0, 1, 0)))
    assert triple_product_vanishes(gram(orth), orth)
    assert abs(triangle_angular_invariant(*orth) - math.pi / 2) <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite_values(bad):
    for k in range(4):
        values = [1.0, 1.0, 1.0, 0.0]
        values[k] = bad
        with pytest.raises(UsageError):
            TriangleParams(*values)


def test_angular_invariant_permutation_and_rescale_invariance():
    pts = random_positive_triple(101)
    a = triangle_angular_invariant(*pts)
    for perm in itertools.permutations(range(3)):
        assert abs(triangle_angular_invariant(*(pts[i] for i in perm)) - a) <= 1e-10
    d = random_rescaling(3, seed=102)
    rescaled = tuple(p.rescale(x) for p, x in zip(pts, d))
    assert abs(triangle_angular_invariant(*rescaled) - a) <= 1e-10


def test_angular_invariant_matches_gram_alpha():
    params = TriangleParams(0.9, 0.8, 0.7, 0.6)
    assert triangle_exists(params)
    pts = realize_triangle(params)
    assert abs(triangle_angular_invariant(*pts) - 0.6) <= 1e-9


# ---------------------------------------------------------------------------
# normalized Gram and parameters

def test_normalize_orthonormal_triple():
    pts = (ball(1, 0, 0, 0), ball(0, 1, 0, 0), ball(0, 0, 1, 0))
    from hqmoduli.qmatrix import QMatrix
    assert (normalize_triangle(*pts) - QMatrix.eye(3)).norm() <= 1e-12
    assert triangle_params(*pts).as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_parabolic_triple_params():
    prm = triangle_params(*example_parabolic_triple())
    assert max(abs(prm.r1 - 1), abs(prm.r2 - 1), abs(prm.r3 - 1),
               abs(prm.alpha)) <= 1e-10


def test_normalized_gram_unique_under_rescaling():
    pts = random_positive_triple(103)
    d = random_rescaling(3, seed=104)
    rescaled = tuple(p.rescale(x) for p, x in zip(pts, d))
    g1 = normalize_triangle(*pts)
    g2 = normalize_triangle(*rescaled)
    assert (g1 - g2).norm() <= 1e-9 * (1 + g1.norm())


def test_params_round_trip_through_gram():
    prm = TriangleParams(1.3, 0.4, 0.9, 1.1)
    g = gram_from_params(prm)
    assert g.is_hermitian(1e-14)
    assert abs(g.entry(1, 2) - Quaternion(1.3 * math.cos(1.1),
                                          1.3 * math.sin(1.1))) <= 1e-14


def test_gram_from_params_matches_entrywise_reference():
    # values, not sign bits: the entrywise build wrote conj(g23)'s zero
    # j-part as -0.0
    args = build_parser().parse_args(["triangle-sweep"])
    rs = np.linspace(0.0, args.r_max, args.r_steps)
    for r1, r2, r3, a in itertools.product(
            rs, rs, rs, np.linspace(0.0, math.pi / 2, args.alpha_steps)):
        prm = TriangleParams(float(r1), float(r2), float(r3), float(a))
        want = QMatrix.eye(3)
        g23 = Quaternion(prm.r1 * math.cos(prm.alpha),
                         prm.r1 * math.sin(prm.alpha))
        for i, j, q in ((0, 1, quat(prm.r3)), (0, 2, quat(prm.r2)), (1, 2, g23)):
            want.set_entry(i, j, q)
            want.set_entry(j, i, q.conj())
        got = gram_from_params(prm)
        assert np.array_equal(got.c1, want.c1), prm
        assert np.array_equal(got.c2, want.c2), prm


def test_params_validation():
    with pytest.raises(UsageError):
        TriangleParams(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(UsageError):
        TriangleParams(1.0, 1.0, 1.0, 4.0)


# ---------------------------------------------------------------------------
# existence

def test_existence_spot_values():
    assert abs(triangle_det(TriangleParams(1, 1, 1, 0))) <= 1e-14
    assert triangle_exists(TriangleParams(1, 1, 1, 0))
    assert abs(triangle_det(TriangleParams(0.5, 0.5, 0.5, math.pi / 2)) - 0.25) <= 1e-14
    assert not triangle_exists(TriangleParams(0.5, 0.5, 0.5, math.pi / 2))
    assert abs(triangle_det(TriangleParams(2, 0, 0, 0)) + 3.0) <= 1e-14
    assert triangle_exists(TriangleParams(2, 0, 0, 0))


def test_realize_boundary_case_is_degenerate():
    pts = realize_triangle(TriangleParams(1, 1, 1, 0))
    assert span_dimension(pts) == 2
    assert classify_triangle(*pts) == TriangleClass.PARABOLIC111


def test_realize_nonexistent_raises():
    with pytest.raises(RealizationError):
        realize_triangle(TriangleParams(0.5, 0.5, 0.5, math.pi / 2))


def test_realize_ultraparallel_side():
    t = math.cosh(1.0)
    pts = realize_triangle(TriangleParams(t, 0, 0, 0))
    cfg = pair_configuration(pts[1], pts[2])
    assert cfg.kind == "ultraparallel" and abs(cfg.distance - 2.0) <= 1e-9
    for a, b in ((0, 1), (0, 2)):
        cfg = pair_configuration(pts[a], pts[b])
        assert cfg.kind == "intersecting"
        assert abs(cfg.angle - math.pi / 2) <= 1e-9


def test_realize_equilateral_intersecting_sides():
    r = 0.9
    prm = TriangleParams(r, r, r, math.pi / 2)
    assert triangle_exists(prm)
    pts = realize_triangle(prm)
    assert realization_error(pts, gram_from_params(prm)) <= 1e-8
    for a, b in ((0, 1), (0, 2), (1, 2)):
        cfg = pair_configuration(pts[a], pts[b])
        assert cfg.kind == "intersecting"
        assert abs(cfg.angle - math.acos(r)) <= 1e-9


# ---------------------------------------------------------------------------
# classification

def test_classify_elliptic_plane():
    pts = (ball(1, 0, 0), ball(1, 1, 0), ball(1, -1, 0))
    assert inertia(gram(pts)).as_tuple() == (2, 0, 1)
    assert classify_triangle(*pts) == TriangleClass.ELLIPTIC


def test_classify_hyperbolic_planar():
    pts = (ball(1.5, 0, 1), ball(2.0, 0, 1), ball(3.0, 0, 1))
    iner = inertia(gram(pts))
    assert (iner.n_plus, iner.n_minus) == (1, 1)
    assert classify_triangle(*pts) == TriangleClass.HYPERBOLIC_PLANAR


def test_classify_hyperbolic_full():
    pts = realize_triangle(TriangleParams(2, 0, 0, 0))
    iner = inertia(gram(pts))
    assert (iner.n_plus, iner.n_minus) == (2, 1)
    assert classify_triangle(*pts) == TriangleClass.HYPERBOLIC_FULL


def test_classify_generic_random_triples_consistent():
    for trial in range(20):
        pts = random_positive_triple(2200 + trial)
        cls = classify_triangle(*pts)
        iner = inertia(gram(pts))
        want = {(1, 0): TriangleClass.PARABOLIC111,
                (2, 0): TriangleClass.ELLIPTIC,
                (1, 1): TriangleClass.HYPERBOLIC_PLANAR,
                (2, 1): TriangleClass.HYPERBOLIC_FULL}
        assert cls == want[(iner.n_plus, iner.n_minus)]


@pytest.mark.parametrize("model", [BALL, SIEGEL])
def test_classify_under_opposite_vertex_scales(model):
    # the first vertex times s and the last times 1/s spread the raw Gram
    # entries over s^-2 ... s^2; the signature is read at unit diagonal
    for seed in range(10):
        pts = random_regular_tuple(2, 3, seed, model)
        want = classify_triangle(*pts)
        for s in (1e-3, 1e-4, 1e-5, 1e-6):
            moved = (pts[0].scaled(s), pts[1], pts[2].scaled(1.0 / s))
            assert classify_triangle(*moved) == want, (seed, s)


# ---------------------------------------------------------------------------
# side geometry

def test_side_from_r_cases():
    cfg = PairConfiguration.from_t(0.0)
    assert cfg.kind == "intersecting" and abs(cfg.angle - math.pi / 2) <= 1e-12
    assert PairConfiguration.from_t(1.0).kind == "asymptotic"
    cfg = PairConfiguration.from_t(math.cosh(1.5))
    assert cfg.kind == "ultraparallel" and abs(cfg.distance - 3.0) <= 1e-12
