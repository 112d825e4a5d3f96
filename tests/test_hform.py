"""Hermitian form, models, isometries, and polar-vector geometry."""

import math

import numpy as np
import pytest

from hqmoduli.errors import DegenerateInputError, DomainError, UsageError
from hqmoduli.gram import Inertia, check_admissible, inertia, gram, realize
from hqmoduli.hform import (BALL, SIEGEL, HVector, Isometry, PointClass,
                            cayley_isometry, cayley_matrix, classify,
                            form_matrix, herm,
                            map_orthonormal_frames, orthogonal_complement_basis,
                            pair_configuration, pair_isometry, pair_moduli,
                            projective_distance, random_isometry,
                            self_product, to_model, tuple_from_columns,
                            verify_isometry)
from hqmoduli.positive import positive_coordinate, regular_coordinate
from hqmoduli.qmatrix import QMatrix
from hqmoduli.quat import ONE, Quaternion
from hqmoduli.sampling import (random_null_point, random_parabolic_tuple,
                               random_positive_point, random_quaternion,
                               random_regular_tuple, random_unit_quaternion)

HERM_TOL = 1e-10


def ball(*entries):
    return HVector.from_entries(entries, BALL)


def siegel(*entries):
    return HVector.from_entries(entries, SIEGEL)


# ---------------------------------------------------------------------------
# herm and classify

def test_herm_ball_basis():
    assert herm(ball(1, 0, 0), ball(1, 0, 0)).isclose(ONE, HERM_TOL)


def test_herm_siegel_infinity_is_null():
    z = siegel(1, 0, 0)
    assert abs(herm(z, z)) <= HERM_TOL


def test_herm_hermitian_symmetry_and_sesquilinearity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = ball(*(random_quaternion(rng) for _ in range(3)))
        w = ball(*(random_quaternion(rng) for _ in range(3)))
        assert herm(w, z).isclose(herm(z, w).conj(), HERM_TOL)
        lam, vv = random_quaternion(rng), random_quaternion(rng)
        lhs = herm(z.rescale(lam), w.rescale(vv))
        rhs = vv.conj() * herm(z, w) * lam
        assert abs(lhs - rhs) <= HERM_TOL * (1 + abs(rhs))


def test_form_matrix_is_cached_and_read_only():
    for model in (BALL, SIEGEL):
        j = form_matrix(model, 3)
        assert form_matrix(model, 3) is j
        with pytest.raises(ValueError):
            j.c1[0, 0] = 2.0
        with pytest.raises(ValueError):
            j.c2[0, 0] = 1.0
    assert inertia(form_matrix(SIEGEL, 3)).as_tuple() == (3, 1, 0)


@pytest.mark.parametrize("make", [
    lambda: HVector.from_entries([1.0], BALL),
    lambda: HVector.from_entries([1.0], SIEGEL),
    lambda: form_matrix(BALL, 0),
    lambda: form_matrix(SIEGEL, 0),
    lambda: cayley_matrix(0),
    lambda: realize(QMatrix.real([[-1.0]]), 0),
    lambda: realize(QMatrix.real([[1.0, 2.0], [0.0, 1.0]]), 0),
    lambda: check_admissible(Inertia(0, 1, 0), 0),
], ids=["point-ball", "point-siegel", "form-ball", "form-siegel", "cayley",
        "realize", "realize-non-hermitian", "admissible"])
def test_h_0_1_is_a_usage_error(make):
    # at n = 0 the ball form is [[-1]] and the Siegel form [[1]], so a
    # one-entry point was positive in one model and negative in the other
    with pytest.raises(UsageError, match="n >= 1"):
        make()


def test_herm_model_mismatch_raises():
    with pytest.raises(UsageError):
        herm(ball(1, 0, 0), siegel(1, 0, 0))


def test_classify_examples():
    assert classify(ball(0, 1, 0)) == PointClass.POSITIVE
    assert classify(ball(1, 0, 1)) == PointClass.NULL
    assert classify(ball(0, 0, 1)) == PointClass.NEGATIVE


def test_classify_zero_raises():
    with pytest.raises(DomainError):
        classify(ball(0, 0, 0))


# ---------------------------------------------------------------------------
# Cayley transform

def test_cayley_null_stays_null():
    z = to_model(ball(1, 0, 1), SIEGEL)
    assert z.model == SIEGEL
    assert classify(z) == PointClass.NULL


def test_cayley_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = ball(*(random_quaternion(rng) for _ in range(4)))
        back = to_model(to_model(z, SIEGEL), BALL)
        assert (back.qm - z.qm).norm() <= 1e-12 * max(1.0, z.norm())


def test_cayley_preserves_herm():
    rng = np.random.default_rng(6)
    for _ in range(300):
        z = ball(*(random_quaternion(rng) for _ in range(3)))
        w = ball(*(random_quaternion(rng) for _ in range(3)))
        lhs = herm(z, w)
        rhs = herm(to_model(z, SIEGEL), to_model(w, SIEGEL))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_cayley_conjugated_isometry_preserves_siegel_form():
    g = random_isometry(3, seed=42)
    gs = cayley_isometry(g)
    assert verify_isometry(gs) <= 1e-8


# ---------------------------------------------------------------------------
# isometries

def test_verify_isometry_identity_and_central():
    n = 3
    ident = Isometry(QMatrix.eye(n + 1), BALL)
    assert verify_isometry(ident) <= 1e-14
    rng = np.random.default_rng(8)
    u = random_unit_quaternion(rng)
    central = Isometry(QMatrix.eye(n + 1).right_scalar(u), BALL)
    assert verify_isometry(central) <= 1e-12


def test_verify_isometry_detects_perturbation():
    g = random_isometry(2, seed=1)
    bad = g.qm.copy()
    bad.c1[0, 0] += 0.01
    assert verify_isometry(Isometry(bad, BALL)) > 1e-3


def test_random_isometry_contract():
    for seed in range(10):
        g = random_isometry(3, seed)
        assert verify_isometry(g) <= 1e-9 * 4


def test_random_isometry_deterministic():
    a = random_isometry(2, seed=123)
    b = random_isometry(2, seed=123)
    assert (a.qm - b.qm).norm() == 0.0


def test_random_isometry_preserves_class():
    rng = np.random.default_rng(9)
    g = random_isometry(2, seed=77)
    for _ in range(30):
        z = random_positive_point(2, rng)
        assert classify(g.apply(z)) == PointClass.POSITIVE
        w = random_null_point(2, rng)
        assert classify(g.apply(w)) == PointClass.NULL


def test_map_orthonormal_frames_identity_case():
    p = (ball(1, 0, 0), ball(0, 1, 0))
    g = map_orthonormal_frames(p, p)
    for z in p:
        assert projective_distance(g.apply(z), z) <= 1e-9


def test_map_orthonormal_frames_transitive_on_positives():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_positive_point(2, rng)
        q = random_positive_point(2, rng)
        pu = p.scaled(1.0 / math.sqrt(self_product(p)))
        qu = q.scaled(1.0 / math.sqrt(self_product(q)))
        g = map_orthonormal_frames([pu], [qu])
        assert verify_isometry(g) <= 1e-8
        assert projective_distance(g.apply(pu), qu) <= 1e-8


def test_map_orthonormal_frames_full_frame():
    rng = np.random.default_rng(12)
    g0 = random_isometry(2, seed=31)
    p = (ball(1, 0, 0), ball(0, 1, 0))
    q = tuple(g0.apply(z) for z in p)
    g = map_orthonormal_frames(p, q)
    for a, b in zip(p, q):
        assert projective_distance(g.apply(a), b) <= 1e-9


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_map_orthonormal_frames_partial_frames_n3(model, k):
    """The first k columns of a random ball isometry are J-orthonormal
    positives; the map carries one such frame exactly onto another."""
    for seed in range(5):
        gp, gq = random_isometry(3, 2 * seed), random_isometry(3, 2 * seed + 1)
        p = [to_model(HVector(gp.qm.col(i), BALL), model) for i in range(k)]
        q = [to_model(HVector(gq.qm.col(i), BALL), model) for i in range(k)]
        g = map_orthonormal_frames(p, q)
        assert g.model == model
        assert verify_isometry(g) <= 1e-9
        for a, b in zip(p, q):
            assert (g.apply(a).qm - b.qm).norm() <= 1e-9 * b.norm()


def test_map_orthonormal_frames_rejects_non_frames():
    with pytest.raises(DomainError):
        map_orthonormal_frames([ball(2, 0, 0)], [ball(1, 0, 0)])


# ---------------------------------------------------------------------------
# orthogonal complements and distances

def test_complement_of_siegel_infinity():
    z = siegel(1, 0, 0, 0)
    basis = orthogonal_complement_basis(z)
    assert (basis[0].qm - z.qm).norm() <= 1e-12
    for v in basis:
        assert abs(herm(v, z)) <= 1e-10


def test_complement_of_negative_basis_vector():
    z = ball(0, 0, 0, 1)
    basis = orthogonal_complement_basis(z)
    assert len(basis) == 3
    for v in basis:
        assert classify(v) == PointClass.POSITIVE
        assert abs(herm(v, z)) <= 1e-10


def test_complement_of_positive_vector_structure():
    rng = np.random.default_rng(14)
    z = random_positive_point(3, rng)
    basis = orthogonal_complement_basis(z)
    assert len(basis) == 3
    classes = [classify(v) for v in basis]
    assert classes.count(PointClass.POSITIVE) == 2
    assert classes.count(PointClass.NEGATIVE) == 1
    for v in basis:
        assert abs(herm(v, z)) <= 1e-9 * (1 + v.norm() * z.norm())


def random_negative_point(n, rng, model):
    """Ball lift (u, 1) with |u| < 1, in the given model."""
    v = rng.normal(size=4 * n)
    v *= rng.uniform(0.0, 0.9) / np.linalg.norm(v)
    entries = [Quaternion(*v[4 * t:4 * t + 4]) for t in range(n)] + [ONE]
    return to_model(ball(*entries), model)


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complement_basis_is_scale_invariant(n, model):
    """For z scaled by 10^e, e = -16..16: n basis vectors in the
    documented classes, each J-orthogonal to z relative to |v| |z|."""
    rng = np.random.default_rng(40 + n)
    pos, neg, null = PointClass.POSITIVE, PointClass.NEGATIVE, PointClass.NULL
    cases = [(random_null_point(n, rng, model), [null] + [pos] * (n - 1)),
             (random_positive_point(n, rng, model), [pos] * (n - 1) + [neg]),
             (random_negative_point(n, rng, model), [pos] * n)]
    for z0, want in cases:
        for e in range(-16, 17):
            z = z0.scaled(10.0 ** e)
            basis = orthogonal_complement_basis(z)
            assert [classify(v) for v in basis] == want, (e, want)
            for v in basis:
                assert v.model == model
                assert abs(herm(v, z)) <= 1e-12 * v.norm() * z.norm(), e


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complement_basis_is_a_j_orthonormal_frame(n, model):
    """What callers rely on, not which frame: past a null z itself, the
    basis vectors have Gram matrix diag(+1, ..., +1[, -1]) and are
    J-orthogonal to z; n - 1 or n such vectors span the complement."""
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        cases = [(random_null_point(n, rng, model), [1.0] * (n - 1)),
                 (random_positive_point(n, rng, model), [1.0] * (n - 1) + [-1.0]),
                 (random_negative_point(n, rng, model), [1.0] * n)]
        for z, signs in cases:
            basis = orthogonal_complement_basis(z)
            frame = basis[1:] if len(signs) < n else basis
            assert len(frame) == len(signs)
            if frame:
                want = QMatrix(np.diag(signs).astype(complex),
                               np.zeros((len(signs), len(signs)), complex))
                assert (gram(frame) - want).norm() <= 1e-10
            for v in frame:
                assert abs(herm(v, z)) <= 1e-10 * v.norm() * z.norm()


# ---------------------------------------------------------------------------
# pairs of positive points

def test_pair_orthogonal_intersecting():
    cfg = pair_configuration(ball(1, 0, 0), ball(0, 1, 0))
    assert cfg.kind == "intersecting"
    assert abs(cfg.angle - math.pi / 2) <= 1e-12


def test_pair_asymptotic():
    g = QMatrix.eye(2)
    g.set_entry(0, 1, ONE)
    g.set_entry(1, 0, ONE)  # Gram [[1,1],[1,1]]: rank one, degenerate pair
    p1, p2 = realize(g, 2)
    cfg = pair_configuration(p1, p2)
    assert cfg.kind == "asymptotic"
    assert classify(p1 - p2) == PointClass.NULL


def test_pair_ultraparallel_distance():
    t = math.cosh(1.0)
    g = QMatrix.eye(2)
    g.set_entry(0, 1, Quaternion(t))
    g.set_entry(1, 0, Quaternion(t))
    p1, p2 = realize(g, 2)
    cfg = pair_configuration(p1, p2)
    assert cfg.kind == "ultraparallel"
    assert abs(cfg.distance - 2.0) <= 1e-9


def test_pair_moduli_invariance():
    rng = np.random.default_rng(16)
    g = random_isometry(2, seed=91)
    for _ in range(30):
        p1 = random_positive_point(2, rng)
        p2 = random_positive_point(2, rng)
        t = pair_moduli(p1, p2)
        t2 = pair_moduli(g.apply(p1).rescale(random_quaternion(rng) + 2.0),
                         g.apply(p2).rescale(random_quaternion(rng) + 2.0))
        assert abs(t - t2) <= 1e-9 * (1 + t)


@pytest.mark.parametrize("delta", [0.0, 1e-10, 3e-9, 5e-9, 2e-8])
def test_pair_trichotomy_agrees_with_partition(delta):
    # asymptotic is the zero eigenvalue 1 - t of the pair's unit-diagonal
    # Gram matrix [[1, t], [t, 1]], the one detect_partition reads
    t = 1.0 + delta
    g = QMatrix.eye(2)
    g.set_entry(0, 1, Quaternion(t))
    g.set_entry(1, 0, Quaternion(t))
    p1, p2 = realize(g, 2)
    asymptotic = pair_configuration(p1, p2).kind == "asymptotic"
    assert asymptotic == (positive_coordinate((p1, p2)).kind == "parabolic")


def test_pair_configuration_rejects_proportional():
    p = ball(0, 2, 1)
    with pytest.raises(DegenerateInputError):
        pair_configuration(p, p.rescale(Quaternion(0.5, 0.5, 0, 0)))


@pytest.mark.parametrize("model", [BALL, SIEGEL])
def test_coincident_pairs_are_rejected(model):
    # p and p lambda are one projective point: pair_moduli once answered
    # t = 1 and pair_isometry returned a matrix that is no isometry
    rng = np.random.default_rng(23)
    p, q = (random_positive_point(2, rng, model) for _ in range(2))
    lam, mu = Quaternion(0.3, -1.2, 0.5, 2.0), Quaternion(-0.7, 0.1, 1.1, 0.4)
    for fn in (pair_moduli, pair_configuration):
        with pytest.raises(DegenerateInputError):
            fn(p, p.rescale(lam))
    for pairs in ((p, p.rescale(lam), q, q.rescale(mu)),
                  (p, q, q, q.rescale(mu))):
        with pytest.raises(DegenerateInputError):
            pair_isometry(*pairs)


@pytest.mark.parametrize("model", [BALL, SIEGEL])
def test_pair_moduli_is_the_regular_coordinate_entry(model):
    # one invariant, one value: t is |g_12| of the canonical Gram matrix
    # of the pair, at lift scales from 1e-6 to 1e6
    rng = np.random.default_rng(29)
    for seed in range(100):
        p1, p2 = random_regular_tuple(2 + seed % 2, 2, seed, model)
        s1, s2 = 10.0 ** rng.uniform(-6.0, 6.0, size=2)
        p1 = p1.rescale(random_unit_quaternion(rng) * float(s1))
        p2 = p2.rescale(random_unit_quaternion(rng) * float(s2))
        entry = regular_coordinate((p1, p2)).entries[0]
        assert abs(pair_moduli(p1, p2) - abs(entry)) <= 1e-14, seed


def test_pair_isometry_maps_pairs():
    rng = np.random.default_rng(18)
    for trial in range(20):
        p1 = random_positive_point(2, rng)
        p2 = random_positive_point(2, rng)
        g0 = random_isometry(2, seed=1000 + trial)
        q1 = g0.apply(p1).rescale(random_quaternion(rng) + 2.0)
        q2 = g0.apply(p2).rescale(random_quaternion(rng) + 2.0)
        g = pair_isometry(p1, p2, q1, q2)
        assert verify_isometry(g) <= 1e-7
        assert projective_distance(g.apply(p1), q1) <= 1e-6
        assert projective_distance(g.apply(p2), q2) <= 1e-6


@pytest.mark.parametrize("bad", [ball(0, 0, 1), ball(1, 0, 1)],
                         ids=["negative", "null"])
def test_pair_isometry_rejects_non_positive_points(bad):
    with pytest.raises(DomainError):
        pair_isometry(bad, ball(1, 0, 0), ball(0, 1, 0), ball(1, 0, 0))
    with pytest.raises(DomainError):
        pair_isometry(ball(0, 1, 0), ball(1, 0, 0), ball(1, 0, 0), bad)


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_isometry_maps_asymptotic_pairs(n, model):
    """Two lifts from one block of a parabolic tuple have t = 1; the map
    goes through the null partner of their difference."""
    rng = np.random.default_rng(21 + n)
    for seed in range(10):
        p1, p2 = random_parabolic_tuple(n, 3, seed, model)[:2]
        assert pair_configuration(p1, p2).kind == "asymptotic"
        g0 = random_isometry(n, seed=2000 + seed, model=model)
        q1 = g0.apply(p1).rescale(random_quaternion(rng) + 2.0)
        q2 = g0.apply(p2).rescale(random_quaternion(rng) + 2.0)
        p1 = p1.rescale(random_quaternion(rng) * 1e-3)
        g = pair_isometry(p1, p2, q1, q2)
        assert g.model == model
        assert verify_isometry(g) <= 1e-9
        assert projective_distance(g.apply(p1), q1) <= 1e-9
        assert projective_distance(g.apply(p2), q2) <= 1e-9


def test_pair_isometry_rejects_different_invariants():
    p1, p2 = ball(1, 0, 0), ball(0, 1, 0)
    g = QMatrix.eye(2)
    g.set_entry(0, 1, Quaternion(2.0))
    g.set_entry(1, 0, Quaternion(2.0))
    q1, q2 = realize(g, 2)
    with pytest.raises(DomainError):
        pair_isometry(p1, p2, q1, q2)


# ---------------------------------------------------------------------------
# products of null points

def test_distinct_null_points_never_orthogonal():
    rng = np.random.default_rng(19)
    for _ in range(100):
        z = random_null_point(2, rng)
        w = random_null_point(2, rng)
        if projective_distance(z, w) < 1e-3:
            continue
        assert abs(herm(z, w)) > 1e-8


def test_null_pair_gram_has_negative_eigenvalue():
    rng = np.random.default_rng(20)
    for _ in range(50):
        z = random_null_point(3, rng)
        w = random_null_point(3, rng)
        if projective_distance(z, w) < 1e-3:
            continue
        assert inertia(gram([z, w])).n_minus == 1


def test_wrapped_columns_are_plain_hvectors_on_slices():
    # tuple_from_columns skips the per-column checks, which a user-built
    # HVector still runs; its vectors behave like checked ones
    rng = np.random.default_rng(31)
    qm = QMatrix(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)),
                 rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    cols = tuple_from_columns(qm, SIEGEL)
    assert len(cols) == 3
    for j, z in enumerate(cols):
        assert type(z) is HVector and type(z.qm) is QMatrix
        assert z.model == SIEGEL and z.n == 3 and z.qm.shape == (4, 1)
        assert np.shares_memory(z.qm.c1, qm.c1) and np.shares_memory(z.qm.c2, qm.c2)
        assert z.entries() == [qm.entry(i, j) for i in range(4)]
        assert herm(z, z) == herm(HVector(qm.col(j), SIEGEL),
                                  HVector(qm.col(j), SIEGEL))
        with pytest.raises(AttributeError):
            z.model = BALL
    with pytest.raises(UsageError, match="unknown model"):
        tuple_from_columns(qm, "poincare")
    with pytest.raises(UsageError, match="single column"):
        HVector(qm, BALL)
    with pytest.raises(UsageError, match="unknown model"):
        HVector(qm.col(0), "poincare")
