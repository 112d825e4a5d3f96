"""Triangles of quaternionic lines in H^{2,1}: the angular invariant
alpha, normalized Gram, existence, classification, and side geometry."""

import itertools
import math

import numpy as np
import pytest

from hqmoduli import qmatrix
from hqmoduli.cli import build_parser, main
from hqmoduli.errors import (DegenerateInputError, DomainError,
                             InconsistencyError, RealizationError, UsageError)
from hqmoduli.gram import (Lifts, gram, hyperbolic_pair, inertia,
                           nonzero_products, realization_error,
                           span_dimension, triple_product)
from hqmoduli.hform import (BALL, SIEGEL, HVector, PairConfiguration,
                            pair_configuration, random_isometry, to_model)
from hqmoduli.positive import one_normalize, positive_coordinate
from hqmoduli.qmatrix import QMatrix
from hqmoduli.quat import I, Quaternion
from hqmoduli.sampling import (random_parabolic_tuple, random_positive_point,
                               random_regular_tuple, random_rescaling)
from hqmoduli.triangle import (TriangleClass, TriangleParams, classify_triangle,
                               gram_from_params, normalize_triangle,
                               realize_and_classify, realize_triangle,
                               triangle_det,
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
# angular invariant: the alpha of triangle_params

def alpha(*points) -> float:
    return triangle_params(*points).alpha


def test_angular_invariant_worked_example():
    p1, p2, p3 = ball(0, 1, 0), ball(1, 1, 1), ball(I, 1, 1)
    t = triple_product(gram([p1, p2, p3]))
    assert abs(t - I) <= 1e-12
    assert abs(alpha(p1, p2, p3) - math.pi / 2) <= 1e-12


def test_angular_invariant_fallback_on_orthogonal_triple():
    # every product is zero by the rule, so T vanishes and alpha is 0
    p = (ball(1, 0, 0, 0), ball(0, 1, 0, 0), ball(0, 0, 1, 0))
    assert not nonzero_products(Lifts(p).mod)[~np.eye(3, dtype=bool)].any()
    assert alpha(*p) == 0.0


SCALES = (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6)


@pytest.mark.parametrize("scale", SCALES)
def test_angular_invariant_under_overall_lift_scale(scale):
    pts = random_positive_triple(101)
    a = alpha(*pts)
    assert abs(a - 1.65385) <= 1e-5
    scaled = tuple(p.scaled(scale) for p in pts)
    assert abs(alpha(*scaled) - a) <= 1e-10
    orth = tuple(p.scaled(scale) for p in (ball(1, 0, 0, 0), ball(0, 1, 0, 0),
                                           ball(0, 0, 1, 0)))
    assert not nonzero_products(Lifts(orth).mod)[~np.eye(3, dtype=bool)].any()
    assert alpha(*orth) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite_values(bad):
    for k in range(4):
        values = [1.0, 1.0, 1.0, 0.0]
        values[k] = bad
        with pytest.raises(UsageError):
            TriangleParams(*values)


def test_angular_invariant_permutation_and_rescale_invariance():
    pts = random_positive_triple(101)
    a = alpha(*pts)
    for perm in itertools.permutations(range(3)):
        assert abs(alpha(*(pts[i] for i in perm)) - a) <= 1e-10
    d = random_rescaling(3, seed=102)
    rescaled = tuple(p.rescale(x) for p, x in zip(pts, d))
    assert abs(alpha(*rescaled) - a) <= 1e-10


def test_angular_invariant_matches_gram_alpha():
    params = TriangleParams(0.9, 0.8, 0.7, 0.6)
    assert triangle_exists(params)
    pts = realize_triangle(params)
    assert abs(alpha(*pts) - 0.6) <= 1e-9


def test_angular_invariant_of_small_nonzero_products():
    # products of 1e-6 are nonzero by the zero-product rule (ZERO_EPS of
    # the largest |g_ab|), so T is nonzero and its angle is alpha, not 0
    pts = realize_triangle(TriangleParams(1e-6, 1e-6, 2.0, 0.4))
    assert abs(alpha(*pts) - 0.4) <= 1e-8
    g = random_isometry(2, seed=5)
    moved = tuple(g.apply(p) for p in pts)
    assert abs(alpha(*moved) - 0.4) <= 1e-8


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


def test_alpha_of_a_zero_product_is_zero_under_rescaling():
    # a product that is zero by the zero-product rule (g_23 = 1e-10, or
    # g_12 = 0, or g_13 = 0) leaves alpha undetermined, so it is recorded
    # as 0 whatever the lifts' scalars, and the normalized Gram matrix is
    # the same for every rescaling.  With g_12 or g_13 zero, alpha once
    # followed the lifts: the second normalization never turned g_23
    for params in ((1e-10, 2.0, 2.0, 1.0), (1.5, 0.8, 0.0, 0.0),
                   (0.7, 0.0, 1.3, 0.0)):
        pts = realize_triangle(TriangleParams(*params))
        want = normalize_triangle(*pts)
        for seed in range(6):
            d = random_rescaling(3, seed=300 + seed)
            moved = tuple(p.rescale(x) for p, x in zip(pts, d))
            assert triangle_params(*moved).alpha == 0.0, (params, seed)
            got = normalize_triangle(*moved)
            assert (got - want).norm() <= 1e-12 * want.norm(), (params, seed)


@pytest.mark.parametrize("model", [BALL, SIEGEL])
def test_normalized_gram_matches_one_normalize(model):
    # the closed form read off the record against the reference, the
    # rotations of positive.one_normalize, on triples whose products are
    # all nonzero, with lift scales from 1e-3 to 1e3
    rng = np.random.default_rng(41)
    for trial in range(20):
        pts = tuple(random_positive_point(2, rng, model) for _ in range(3))
        units = random_rescaling(3, seed=500 + trial)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
        moved = tuple(p.rescale(x / abs(x) * float(s))
                      for p, x, s in zip(pts, units, scales))
        assert nonzero_products(Lifts(moved).mod).all(), trial
        _, want = one_normalize(moved)
        got = normalize_triangle(*moved)
        assert (got - want).norm() <= 1e-12 * want.norm(), trial


@pytest.mark.parametrize("fn", [classify_triangle, alpha, triangle_params,
                                normalize_triangle])
def test_coincident_vertices_are_rejected(fn):
    # classify_triangle(p, p, q) once answered HyperbolicPlanar and the
    # angular invariant 0.0, while triangle_params raised: the vertices now
    # get the distinctness check of every positive tuple, also when the
    # repeated vertex is rescaled by a quaternion
    rng = np.random.default_rng(3)
    p, q = random_positive_point(2, rng), random_positive_point(2, rng)
    for tri in ((p, p, q), (q, p, p.rescale(Quaternion(0.3, -1.2, 0.5, 2.0)))):
        with pytest.raises(DegenerateInputError):
            fn(*tri)
        with pytest.raises(DegenerateInputError):
            fn(Lifts(tri))


@pytest.mark.parametrize("fn", [classify_triangle, triangle_params])
@pytest.mark.parametrize("m", [2, 4])
def test_a_triangle_needs_exactly_three_points(fn, m):
    pts = random_regular_tuple(2, m, seed=5)
    for args in (pts, (Lifts(pts),)):
        with pytest.raises(UsageError, match="exactly 3 points"):
            fn(*args)


def h31_triples(model):
    """Triples of H^{3,1} beyond the triangle classes: the orthonormal
    e0, e1, e2, and positive parts e1, e2 and e1 + e2 along one null
    direction z0, which span a degenerate subspace whose products inside
    it do not have modulus 1."""
    e = [HVector.from_entries([float(k == t) for k in range(4)], BALL)
         for t in range(4)]
    z0 = e[0] + e[3]
    bent = (e[1] + z0.scaled(0.3), e[2] - z0.scaled(0.7),
            e[1] + e[2] + z0.scaled(1.9))
    return [tuple(to_model(p, model) for p in tri) for tri in (e[:3], bent)]


@pytest.mark.parametrize("model", [BALL, SIEGEL])
def test_triples_beyond_h21_get_the_partitions_answer(model):
    # the orthonormal triple spans a positive definite 3-space, which no
    # class names: a refusal that names its signature, not an internal
    # error, while the partition answers regular
    orthonormal, bent = h31_triples(model)
    with pytest.raises(DomainError, match=r"signature \(3, 0\)"):
        classify_triangle(*orthonormal)
    assert positive_coordinate(orthonormal).kind == "regular"
    # the bent triple has signature (2, 0), once Elliptic to the triangle;
    # both now get the one span rule's refusal
    assert inertia(gram(bent)).as_tuple() == (2, 0, 1)
    assert span_dimension(bent) == 3
    for fn in (lambda pts: classify_triangle(*pts), positive_coordinate):
        with pytest.raises(InconsistencyError, match="modulus 1"):
            fn(bent)
    # two blocks along one null direction: parabolic to the partition, a
    # degenerate span of signature (2, 0) that no class names
    two_blocks = random_parabolic_tuple(3, 3, seed=2, model=model, k=2)
    assert positive_coordinate(two_blocks).kind == "parabolic"
    with pytest.raises(DomainError,
                       match=r"\(2, 0\) whose span is degenerate"):
        classify_triangle(*two_blocks)


def test_a_hyperbolic_pair_outranks_the_form_on_the_span():
    # e0, and e0 + lam b along b = e1 + s e2 just past the cone: the pair's
    # |u_ab| - 1 = 1e-7 certifies a negative eigenvalue of the unit Gram
    # matrix, while the form on the span of the unit columns, which lie
    # near the boundary (|z|^2 / <z, z> ~ lam^2), zeroes it; the triangle
    # keeps the certified signature, as the partition does
    lam = 100.0
    s = math.sqrt(1.0 + 2e-7 / lam ** 2)
    lifts = Lifts([ball(1, 0, 0), ball(1, lam, lam * s),
                   ball(1, lam / 2, lam / 2 * s)])
    assert hyperbolic_pair(lifts.mod) and lifts.form == (1, 0, 1)
    assert positive_coordinate(lifts).kind == "regular"
    assert classify_triangle(lifts) == TriangleClass.HYPERBOLIC_PLANAR


def counting_adjoints(monkeypatch) -> list:
    """The shapes of the QMatrix.adjoint calls made from now on."""
    shapes, adjoint = [], QMatrix.adjoint
    monkeypatch.setattr(QMatrix, "adjoint",
                        lambda a: shapes.append(a.shape) or adjoint(a))
    return shapes


def test_realized_coincident_vertices_keep_their_class(monkeypatch):
    # G = [[1, 1, 0], [1, 1, 0], [0, 0, 1]] has two equal rows and
    # signature (2, 0, 1) with n_plus = n, so realize puts p1 on p2; the
    # class read off that signature stands, and the complex record of the
    # points decides the near pair off C1 without an adjoint
    adjoints = counting_adjoints(monkeypatch)
    pts, cls = realize_and_classify(TriangleParams(0.0, 0.0, 1.0, 0.0))
    assert cls == TriangleClass.ELLIPTIC
    lifts = Lifts(pts)
    assert not lifts.p.c2.any() and "adj" not in vars(lifts)
    with pytest.raises(DegenerateInputError):
        classify_triangle(lifts)
    assert adjoints == [] and "adj" not in vars(lifts)


@pytest.mark.parametrize("params, cls", [
    ((0.6, 0.8, 0.0, 0.0), TriangleClass.ELLIPTIC),
    ((2.0, math.sqrt(1.5), math.sqrt(1.5), 0.0),
     TriangleClass.HYPERBOLIC_PLANAR),
    ((0.5, 0.7, 1.3, 0.4), TriangleClass.HYPERBOLIC_FULL),
    ((1.5, 0.2, 1.9, 1.2), TriangleClass.HYPERBOLIC_FULL),
])
def test_triangle_answers_build_no_complex_adjoint(monkeypatch, capsys,
                                                   params, cls):
    # realized triangles are complex, so their records, Gram matrices,
    # spectra, near pairs and spans stay in C1, with no adjoint
    adjoints = counting_adjoints(monkeypatch)
    prm = TriangleParams(*params)
    for model in (BALL, SIEGEL):
        pts, realized = realize_and_classify(prm, model)
        assert not gram(pts).c2.any()
        assert classify_triangle(*pts) == cls == realized
    argv = ["--json", "triangle"] + [
        f"--{k}={v!r}" for k, v in zip(("r1", "r2", "r3", "alpha"), params)]
    assert main(argv) == 0
    assert f'"class": "{cls.value}"' in capsys.readouterr().out
    assert adjoints == []


def test_realized_parabolic_triangle_builds_no_adjoint(monkeypatch):
    # its near pairs and its span read the record's C1 alone
    adjoints = counting_adjoints(monkeypatch)
    lifts = Lifts(realize_triangle(TriangleParams(1.0, 1.0, 1.0, 0.0)))
    assert classify_triangle(lifts) == TriangleClass.PARABOLIC111
    assert adjoints == []


def test_params_round_trip_through_gram():
    prm = TriangleParams(1.3, 0.4, 0.9, 1.1)
    g = gram_from_params(prm)
    assert (g - g.h).norm() <= 1e-14 * g.norm()
    assert abs(g.entry(1, 2) - Quaternion(1.3 * math.cos(1.1),
                                          1.3 * math.sin(1.1))) <= 1e-14


def test_gram_from_params_matches_entrywise_reference():
    # every cell of the default grid against one broadcast reference;
    # values, not sign bits: the entrywise build wrote conj(g23)'s zero
    # j-part as -0.0.  The angles go through math.cos and math.sin, as in
    # gram_from_params, since numpy's may differ in the last bit.
    args = build_parser().parse_args(["triangle-sweep"])
    rs = np.linspace(0.0, args.r_max, args.r_steps)
    alphas = np.linspace(0.0, math.pi / 2, args.alpha_steps)
    cells = list(itertools.product(rs, rs, rs, alphas))
    r1, r2, r3, k = (x.ravel() for x in np.meshgrid(
        rs, rs, rs, np.arange(alphas.size), indexing="ij"))
    cos = np.array([math.cos(a) for a in alphas])[k]
    sin = np.array([math.sin(a) for a in alphas])[k]
    want = np.zeros((len(cells), 3, 3), dtype=complex)
    want[:, [0, 1, 2], [0, 1, 2]] = 1.0
    want[:, 0, 1] = want[:, 1, 0] = r3
    want[:, 0, 2] = want[:, 2, 0] = r2
    want.real[:, 1, 2] = want.real[:, 2, 1] = r1 * cos
    want.imag[:, 1, 2] = r1 * sin
    want.imag[:, 2, 1] = -(r1 * sin)
    got = [gram_from_params(TriangleParams(*map(float, cell))) for cell in cells]
    assert len(got) == 80_000
    assert np.array_equal(np.stack([g.c1 for g in got]), want)
    assert not np.any(np.stack([g.c2 for g in got]))


def test_eigh_fallback_never_fires_on_the_default_sweep_grid(monkeypatch):
    # every 7th of the 80,000 cells: 11,429 cells, 0 Gram-Schmidt
    # fallbacks and 0 complex adjoints, since every normalized triangle
    # Gram matrix is complex and eigh decomposes its C1
    calls, adjoints = [], []
    gs, adjoint = qmatrix._symplectic_gram_schmidt, QMatrix.adjoint
    monkeypatch.setattr(qmatrix, "_symplectic_gram_schmidt",
                        lambda v: calls.append(1) or gs(v))
    monkeypatch.setattr(QMatrix, "adjoint",
                        lambda a: adjoints.append(a.shape) or adjoint(a))
    args = build_parser().parse_args(["triangle-sweep"])
    rs = np.linspace(0.0, args.r_max, args.r_steps)
    cells = list(itertools.product(
        rs, rs, rs, np.linspace(0.0, math.pi / 2, args.alpha_steps)))
    assert len(cells) == 80_000
    for cell in cells[::7]:
        gram_from_params(TriangleParams(*map(float, cell))).eigh()
    assert len(calls) == 0
    assert len(adjoints) == 0
    # the counters see a quaternionic matrix with a repeated eigenvalue,
    # U diag(1, 1, 2) U* for a quaternion unitary U, take the adjoint path
    # and the fallback
    rng = np.random.default_rng(0)
    x = QMatrix(*(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                  for _ in range(2)))
    _, u = (x + x.h).eigh()
    (u @ QMatrix.real(np.diag([1.0, 1.0, 2.0])) @ u.h).eigh()
    assert len(calls) == 1
    assert adjoints.count((3, 3)) == 2


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


def realizable(params: TriangleParams) -> bool:
    try:
        realize_triangle(params)
    except RealizationError:
        return False
    return True


# triangle_exists reads det G at the absolute DET_TOL, realize the
# eigenvalues at the relative INERTIA_EPS, and near det G = 0 they
# disagree both ways; the default grid has no such cell (acceptance
# test 7).  The first has det 3e-14 and spectrum (3, -1e-7, -1e-7), the
# second det 1e-10 and an elliptic realization.
EXISTENCE_DISAGREEMENTS = [
    pytest.param(TriangleParams(1 + 1e-7, 1 + 1e-7, 1 + 1e-7, 0.0),
                 id="exists-but-n_minus-2"),
    pytest.param(TriangleParams(0.7, 0.9, 0.8513371425810421, 0.3),
                 id="absent-but-realized"),
]


@pytest.mark.xfail(strict=True, reason="triangle_exists decides det G <= "
                   "DET_TOL, realize the signature at INERTIA_EPS")
@pytest.mark.parametrize("params", EXISTENCE_DISAGREEMENTS)
def test_existence_agrees_with_realization_near_det_zero(params):
    assert triangle_exists(params) == realizable(params)


@pytest.mark.xfail(strict=True, reason="triangle_exists decides det G <= "
                   "DET_TOL, realize the signature at INERTIA_EPS")
def test_cli_triangle_near_det_zero_does_not_exist(capsys):
    # the spectrum (3, -1e-7, -1e-7) has two negative eigenvalues, so no
    # such triangle exists; the CLI says it exists and then fails to
    # realize it (exit 3)
    code = main(["triangle", "--r1", "1.0000001", "--r2", "1.0000001",
                 "--r3", "1.0000001"])
    capsys.readouterr()
    assert code == 1


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
