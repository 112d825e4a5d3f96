"""Gram matrices: construction, actions, inertia, and realization."""

import importlib
import itertools
import math
import operator
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqmoduli.boundary import cartan_invariant, vector_to_gram
from hqmoduli.errors import (DegenerateInputError, DomainError, RealizationError,
                             UsageError)
from hqmoduli import boundary, positive, qmatrix, sampling, triangle
from hqmoduli.gram import (INERTIA_EPS, Inertia, Lifts, align,
                           check_admissible, degenerate_span, gram, inertia,
                           nonzero_products, realization_error, realize,
                           rescale_gram, span_dimension)
from hqmoduli.hform import (BALL, SIEGEL, HVector, PairConfiguration,
                            PointClass, cayley_matrix, classify, form_matrix,
                            pair_configuration, random_isometry, to_model)
from hqmoduli.qmatrix import QMatrix, strict_upper
from hqmoduli.quat import Quaternion, quat
from hqmoduli.tol import STRUCTURE_TOL
from hqmoduli.positive import tuple_coordinate
from hqmoduli.sampling import (random_null_point, random_null_tuple,
                               random_parabolic_tuple, random_positive_point,
                               random_quaternion, random_rescaling,
                               random_regular_tuple, random_tuple,
                               random_unit_quaternion)
from hqmoduli.triangle import (TriangleClass, TriangleParams, classify_triangle,
                               realize_and_classify, realize_triangle,
                               triangle_params)

ROUND_TRIP_TOL = 1e-8
# the package exports the function gram under the module's name
gram_module = importlib.import_module("hqmoduli.gram")
quat_module = importlib.import_module("hqmoduli.quat")


def ball(*entries):
    return HVector.from_entries(entries, BALL)


def example_parabolic_triple():
    """Ball triple with the all-ones Gram matrix: p1 positive, null z in
    p1's orthogonal complement, and translates p1 + t z."""
    p1 = ball(0, 1, 0)
    z = ball(1, 0, 1)
    return (p1, p1 + z.scaled(2.0), p1 + z.scaled(3.0))


def all_ones(m):
    g = QMatrix.zeros(m, m)
    g.c1[:, :] = 1.0
    return g


# ---------------------------------------------------------------------------
# gram and its equivariance

def test_gram_of_orthonormal_pair():
    g = gram([ball(1, 0, 0), ball(0, 1, 0)])
    assert (g - QMatrix.eye(2)).norm() <= 1e-12


def test_gram_of_parabolic_triple_is_all_ones():
    g = gram(example_parabolic_triple())
    assert (g - all_ones(3)).norm() <= 1e-12


def test_gram_rescaling_identity():
    rng = np.random.default_rng(21)
    pts = random_regular_tuple(2, 3, seed=4)
    d = random_rescaling(3, seed=5)
    lhs = gram([p.rescale(x) for p, x in zip(pts, d)])
    g = gram(pts)
    rhs = rescale_gram(g, d)
    assert (lhs - rhs).norm() <= 1e-9 * (1 + rhs.norm())
    # the entrywise form against the dense product D* (G D), D = diag(d)
    row = QMatrix.from_entries([d])
    dense = QMatrix(np.diag(row.c1[0]), np.diag(row.c2[0]))
    assert (dense.h @ (g @ dense) - rhs).norm() <= 1e-13 * rhs.norm()


def random_qmatrix(rng, shape) -> QMatrix:
    return QMatrix(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                   rng.normal(size=shape) + 1j * rng.normal(size=shape))


def complex_qmatrix(rng, shape) -> QMatrix:
    return QMatrix(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                   np.zeros(shape))


def test_entrywise_product_matches_quaternion_products():
    rng = np.random.default_rng(22)
    a, b = random_qmatrix(rng, (4, 3)), random_qmatrix(rng, (4, 3))
    want = QMatrix.from_entries(
        [[x * y for x, y in zip(ra, rb)]
         for ra, rb in zip(a.to_entries(), b.to_entries())])
    assert (a * b - want).norm() <= 1e-14 * want.norm()
    # (m,1) * (m,m) * (1,m) broadcasts to c_a g_ab r_b
    col, g, row = (random_qmatrix(rng, (4, 1)), random_qmatrix(rng, (4, 4)),
                   random_qmatrix(rng, (1, 4)))
    want = QMatrix.from_entries(
        [[col.entry(a, 0) * g.entry(a, b) * row.entry(0, b) for b in range(4)]
         for a in range(4)])
    assert (col * g * row - want).norm() <= 1e-14 * want.norm()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), m=st.integers(1, 8),
       model=st.sampled_from((BALL, SIEGEL)), seed=st.integers(0, 2 ** 32 - 1),
       exponents=st.lists(st.floats(-8.0, 8.0), min_size=8, max_size=8))
def test_adjoint_gram_matches_the_quaternion_product(n, m, model, seed,
                                                     exponents):
    # gram reads G = P* J P off the top block row of adj(P)^H adj(J) adj(P)
    rng = np.random.default_rng(seed)
    pts = [HVector(random_qmatrix(rng, (n + 1, 1)).scale(10.0 ** e), model)
           for e in exponents[:m]]
    p = QMatrix.from_columns(z.qm for z in pts)
    want = p.h @ (form_matrix(model, n) @ p)
    g = gram(pts)
    norms = np.linalg.norm(p.modulus(), axis=0)
    assert np.all((g - want).modulus() <= 1e-13 * np.outer(norms, norms))
    assert (g - g.h).norm() <= STRUCTURE_TOL * g.norm()
    lifts = Lifts(pts)
    assert np.array_equal(lifts.adj, p.adjoint())
    assert (lifts.g - g).norm() == 0.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), m=st.integers(1, 8),
       model=st.sampled_from((BALL, SIEGEL)), seed=st.integers(0, 2 ** 32 - 1),
       exponents=st.lists(st.floats(-8.0, 8.0), min_size=8, max_size=8))
def test_complex_gram_is_the_complex_product(n, m, model, seed, exponents):
    # lifts with C2 = 0 give G = P1^H (J1 P1), and their record makes the
    # complex adjoint only when asked
    rng = np.random.default_rng(seed)
    pts = [HVector(complex_qmatrix(rng, (n + 1, 1)).scale(10.0 ** e), model)
           for e in exponents[:m]]
    p = QMatrix.from_columns(z.qm for z in pts)
    want = p.h @ (form_matrix(model, n) @ p)
    g = gram(pts)
    assert not g.c2.any()
    norms = np.linalg.norm(p.modulus(), axis=0)
    assert np.all((g - want).modulus() <= 1e-13 * np.outer(norms, norms))
    lifts = Lifts(pts)
    assert "adj" not in vars(lifts)
    assert (lifts.g - g).norm() == 0.0
    assert np.array_equal(lifts.adj, p.adjoint())
    # the norms are those read off the adjoint's left half, bit for bit
    assert np.array_equal(lifts.norms,
                          np.linalg.norm(lifts.adj[:, :m], axis=0))


def test_from_entries_equals_the_per_entry_construction():
    rows = [[1, -2.5, 3 - 4j, np.float64(-0.0)],
            [np.complex128(-1j), Quaternion(0.5, -1.0, 2.0, -0.0), 0, -7]]
    got = QMatrix.from_entries(rows)
    qs = [[quat(x) for x in row] for row in rows]
    for part, want in ((got.c1, [[q.c1 for q in row] for row in qs]),
                       (got.c2, [[q.c2 for q in row] for row in qs])):
        want = np.array(want, dtype=complex)
        assert part.dtype == want.dtype and part.shape == want.shape
        # bitwise, so the signs of zeros agree too
        assert np.ascontiguousarray(part).tobytes() == want.tobytes()
    assert QMatrix.from_entries([[]]).shape == (1, 0)


def test_cached_masks_and_indices_are_read_only():
    mask = strict_upper(4)
    assert strict_upper(4) is mask
    assert np.array_equal(mask, np.triu(np.ones((4, 4), dtype=bool), 1))
    with pytest.raises(ValueError):
        mask[0, 1] = False
    rows, cols = boundary._t_index(5)
    assert list(zip(rows, cols)) == [(0, 2), (0, 3), (1, 3), (0, 4), (1, 4),
                                     (2, 4)]
    for index in (rows, cols):
        with pytest.raises(ValueError):
            index[0] = 1
    for n in (1, 2, 4):
        c = cayley_matrix(n)
        assert cayley_matrix(n) is c
        for part in (c.c1, c.c2):
            with pytest.raises(ValueError):
                part[0, 0] = 1.0
        assert (c @ c - QMatrix.eye(n + 1)).norm() <= 1e-15
        assert (c.h @ form_matrix(SIEGEL, n) @ c
                - form_matrix(BALL, n)).norm() <= 1e-15


def test_gram_isometry_invariant():
    pts = random_regular_tuple(3, 4, seed=6)
    g = random_isometry(3, seed=7)
    lhs = gram([g.apply(p) for p in pts])
    rhs = gram(pts)
    assert (lhs - rhs).norm() <= 1e-9 * (1 + rhs.norm())


# ---------------------------------------------------------------------------
# inertia

def test_inertia_of_form_matrix():
    for n in (1, 2, 3):
        assert inertia(form_matrix(BALL, n)).as_tuple() == (n, 1, 0)


def test_inertia_of_all_ones():
    assert inertia(all_ones(3)).as_tuple() == (1, 0, 2)


def test_inertia_sylvester_stability():
    rng = np.random.default_rng(23)
    for trial in range(30):
        pts = random_regular_tuple(3, 4, seed=100 + trial)
        g = gram(pts)
        s = QMatrix.eye(4)
        for t in range(4):
            u = random_unit_quaternion(rng) * float(rng.uniform(0.3, 3.0))
            col = s.col(t).right_scalar(u)
            s.c1[:, t] = col.c1[:, 0]
            s.c2[:, t] = col.c2[:, 0]
        s.set_entry(0, 1, random_quaternion(rng) * 0.5)
        assert inertia(s.h @ (g @ s)).as_tuple() == inertia(g).as_tuple()


def test_inertia_block_additivity():
    g1 = gram(random_regular_tuple(2, 2, seed=11))
    g2 = gram(random_null_tuple(2, 2, seed=12))
    m = QMatrix.zeros(4, 4)
    m.c1[:2, :2], m.c2[:2, :2] = g1.c1, g1.c2
    m.c1[2:, 2:], m.c2[2:, 2:] = g2.c1, g2.c2
    i1, i2, itot = inertia(g1), inertia(g2), inertia(m)
    assert itot.as_tuple() == (i1.n_plus + i2.n_plus,
                               i1.n_minus + i2.n_minus,
                               i1.n_zero + i2.n_zero)


def test_inertia_rejects_non_hermitian():
    bad = QMatrix.eye(2)
    bad.set_entry(0, 1, Quaternion(0, 1))
    with pytest.raises(Exception):
        inertia(bad)


@pytest.mark.parametrize("scale", [1.0, 1e12])
def test_inertia_hermitian_check_is_relative(scale):
    """An unmirrored off-diagonal entry is rejected at every scale; the
    zero matrix stays Hermitian."""
    with pytest.raises(DomainError):
        inertia(QMatrix.real([[0.0, 1e-10 * scale], [0.0, 0.0]]))
    assert inertia(QMatrix.zeros(2, 2)).as_tuple() == (0, 0, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("quaternionic", [False, True])
def test_non_finite_entries_fail_the_hermitian_check(bad, quaternionic):
    """A mirrored NaN or inf entry is rejected in C1 when C2 = 0 and in C2
    otherwise, where QMatrix.is_complex reads it as nonzero, so it
    reaches the adjoint's check; it never gets a signature or points."""
    g = QMatrix.real(np.diag([2.0, -1.0, 1.0]))
    if quaternionic:
        g.c2[0, 1], g.c2[1, 0] = bad, -bad
    else:
        g.c1[0, 1] = g.c1[1, 0] = bad
    assert g.is_complex is not quaternionic
    # the check's own subtraction inf - inf warns
    with np.errstate(invalid="ignore"), mock.patch.object(
            QMatrix, "adjoint", autospec=True,
            side_effect=QMatrix.adjoint) as adjoint:
        for decide in (inertia, lambda a: realize(a, 2)):
            with pytest.raises(DomainError):
                decide(g)
    assert adjoint.call_count == 2 * quaternionic


def test_minus_zero_c2_takes_the_c1_branch():
    """QMatrix.is_complex reads -0.0 as zero, as numpy's any() does: the
    spectrum, the Gram matrix and the record never build an adjoint."""
    g = QMatrix(np.diag([2.0, -1.0, 1.0]), np.full((3, 3), -0.0))
    pts = [HVector(QMatrix(z.qm.c1, np.full((3, 1), -0.0)))
           for z in random_regular_tuple(2, 3, seed=4)]
    assert g.is_complex
    with mock.patch.object(QMatrix, "adjoint", autospec=True,
                           side_effect=QMatrix.adjoint) as adjoint:
        assert g.eigvalsh().tolist() == [-1.0, 1.0, 2.0]
        assert inertia(g).as_tuple() == (2, 1, 0)
        assert gram(pts).is_complex
        assert "adj" not in vars(Lifts(pts))
    assert adjoint.call_count == 0


@pytest.mark.parametrize("quaternionic", [False, True])
def test_non_square_matrix_is_a_usage_error(quaternionic):
    g = QMatrix.zeros(2, 3)
    if quaternionic:
        g.c2[0, 1] = 1.0
    for decide in (inertia, lambda a: realize(a, 2)):
        with pytest.raises(UsageError):
            decide(g)


# ---------------------------------------------------------------------------
# admissibility and realization

def test_check_admissible_names_conditions():
    with pytest.raises(RealizationError) as exc:
        check_admissible(Inertia(1, 2, 0), 3)
    assert exc.value.violated == "n_minus <= 1"
    with pytest.raises(RealizationError) as exc:
        check_admissible(Inertia(4, 0, 0), 2)
    assert exc.value.violated == "n_plus <= n"
    with pytest.raises(RealizationError) as exc:
        check_admissible(Inertia(0, 0, 3), 2)
    assert exc.value.violated == "n_plus + n_minus >= 1"


def test_realize_identity_gram():
    pts = realize(QMatrix.eye(2), 2)
    assert all(classify(p) == PointClass.POSITIVE for p in pts)
    assert realization_error(pts, QMatrix.eye(2)) <= ROUND_TRIP_TOL


def test_realize_semi_normalized_boundary_gram_recovers_angle():
    alpha = math.pi / 3
    v1 = Quaternion(-math.cos(alpha), math.sin(alpha))  # -e^{-i alpha}
    g = vector_to_gram([v1])
    pts = realize(g, 2)
    assert all(classify(p) == PointClass.NULL for p in pts)
    assert realization_error(pts, g) <= ROUND_TRIP_TOL
    assert abs(cartan_invariant(*pts) - alpha) <= 1e-9


def test_realize_all_ones_gram():
    pts = realize(all_ones(3), 2)
    assert realization_error(pts, all_ones(3)) <= ROUND_TRIP_TOL
    assert all(classify(p) == PointClass.POSITIVE for p in pts)
    assert span_dimension(pts) == 2


def test_realize_rejects_two_negative_directions():
    g = QMatrix.real(np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(RealizationError) as exc:
        realize(g, 2)
    assert exc.value.violated == "n_minus <= 1"


def test_realize_gram_round_trip_fixed_point():
    for trial in range(20):
        pts = random_regular_tuple(2, 4, seed=200 + trial)
        g = gram(pts)
        assert realization_error(realize(g, 2), g) <= ROUND_TRIP_TOL * (1 + g.norm())


def test_realize_converts_models():
    pts = realize(QMatrix.eye(2), 2, SIEGEL)
    assert pts[0].model == SIEGEL
    assert realization_error(pts, QMatrix.eye(2)) <= ROUND_TRIP_TOL


@pytest.mark.parametrize("diag", [[1.0, 1e-10, 0.0], [1.0, -1e-10, 0.0],
                                  [1.0, 1e-10, 1e-10]])
def test_realize_drops_eigenvalues_inertia_calls_zero(diag):
    # eigenvalues below INERTIA_EPS relative are zero for realize as well
    g = QMatrix.real(np.diag(diag))
    assert inertia(g).as_tuple() == (1, 0, 2)
    assert realization_error(realize(g, 2), g) <= 2 * INERTIA_EPS * g.norm()


def semi_normalized_boundary_gram():
    alpha = 1.0
    return vector_to_gram([Quaternion(-math.cos(alpha), math.sin(alpha))])


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("make", [
    lambda: gram(random_regular_tuple(2, 3, seed=5)),
    lambda: all_ones(3),
    semi_normalized_boundary_gram,
], ids=["regular", "rank_one", "boundary"])
def test_realize_is_scale_invariant(make, model):
    g = make()
    want = inertia(g).as_tuple()
    for e in range(-16, 17):
        gs = g.scale(10.0 ** e)
        assert inertia(gs).as_tuple() == want
        err = realization_error(realize(gs, 2, model), gs)
        assert err <= 1e-12 * gs.norm(), (e, err)


def random_unitary(m, seed):
    """Quaternion-unitary m x m matrix: Gram-Schmidt on Gaussian columns."""
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(m):
        w = rng.standard_normal((m, 4))
        c = QMatrix(w[:, 0:1] + 1j * w[:, 1:2], w[:, 2:3] + 1j * w[:, 3:4])
        for u in cols:
            c = c - u.right_scalar((u.h @ c).entry(0, 0))
        cols.append(c.scale(1.0 / c.norm()))
    return QMatrix.from_columns(cols)


def assert_realizes(g, n):
    pts = realize(g, n)
    assert realization_error(pts, g) <= 1e-10 * (1 + g.norm())
    assert inertia(gram(pts)).as_tuple() == inertia(g).as_tuple()


@st.composite
def repeated_spectra(draw):
    """Spectra with one eigenvalue (positive or zero) of multiplicity 2-3,
    up to two more eigenvalues, at most one of them negative, and at
    least one nonzero eigenvalue."""
    nonzero = st.floats(0.1, 10.0)
    lam = [draw(st.one_of(st.just(0.0), nonzero))] * draw(st.integers(2, 3))
    lam += draw(st.lists(st.one_of(st.just(0.0), nonzero), max_size=1))
    lam += draw(st.lists(nonzero.map(lambda x: -x), max_size=1))
    if not any(lam):
        lam.append(draw(nonzero))
    return lam


@settings(max_examples=60, deadline=None)
@given(repeated_spectra(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_realize_repeated_eigenvalues(lam, seed, diagonal):
    # a diagonal g makes eigh return standard basis vectors, among them a
    # vector and its quaternionic partner inside one repeated eigenvalue
    g = QMatrix.real(np.diag(lam))
    if not diagonal:
        u = random_unitary(len(lam), seed)
        g = u @ g @ u.h
    elif 0.0 in lam and min(lam) < 0:
        # a zero row, and no null direction left to make it a point
        with pytest.raises(RealizationError):
            realize(g, len(lam))
        return
    assert_realizes(g, len(lam))


@pytest.mark.parametrize("g", [QMatrix.eye(3).scale(2.5), all_ones(3),
                               QMatrix.eye(4).scale(0.5)],
                         ids=["cI3", "all_ones3", "cI4"])
def test_realize_repeated_eigenvalues_examples(g):
    assert_realizes(g, g.shape[0])


# ---------------------------------------------------------------------------
# QMatrix.eigh: the even adjoint eigenvectors, Gram-Schmidt on repeated ones

def with_spectrum(lam, seed):
    """U diag(lam) U* with U from eigh of a random Hermitian matrix, or
    diag(lam) itself (standard basis eigenvectors) when seed is None."""
    g = QMatrix.real(np.diag(lam))
    if seed is None:
        return g
    x = random_qmatrix(np.random.default_rng(seed), (len(lam),) * 2)
    _, u = (x + x.h).eigh()
    return u @ g @ u.h


def eigh_fallbacks(g):
    """g.eigh() and the number of Gram-Schmidt fallbacks it made."""
    with mock.patch.object(qmatrix, "_symplectic_gram_schmidt",
                           wraps=qmatrix._symplectic_gram_schmidt) as gs:
        return g.eigh(), gs.call_count


@st.composite
def spectra(draw):
    """(lam, repeated, seed): m in 1..8 eigenvalues, distinct integers or
    a few values of which at least one repeats, times a power of ten."""
    m = draw(st.integers(1, 8))
    repeated = m > 1 and draw(st.booleans())
    if repeated:
        values = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=m - 1,
                               unique=True))
        lam = values + draw(st.lists(st.sampled_from(values),
                                     min_size=m - len(values),
                                     max_size=m - len(values)))
    else:
        lam = draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m,
                            unique=True))
    scale = 10.0 ** draw(st.integers(-3, 3))
    seed = draw(st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
    return [scale * x for x in lam], repeated, seed


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spectra())
@example(([1.0, 1.0, 1.0], True, None))
@example(([1.0, 1.0, 1.0], True, 5))
@example(([1.0, 0.0, 0.0], True, None))
@example(([1.0, 0.0, 0.0, 0.0], True, 6))
@example(([0.0, 0.0], True, 7))
def test_eigh_gives_a_unitary_frame_of_eigenvectors(case):
    lam, repeated, seed = case
    g = with_spectrum(lam, seed)
    (own, q), fallbacks = eigh_fallbacks(g)
    m, tol = len(lam), 1e-12 * max(1.0, g.norm())
    assert (q.h @ q - QMatrix.eye(m)).norm() <= tol
    assert (q @ QMatrix.real(np.diag(own)) @ q.h - g).norm() <= tol
    # column k is an eigenvector of the k-th eigenvalue
    assert (g @ q - QMatrix(q.c1 * own, q.c2 * own)).norm() <= tol
    assert fallbacks <= (1 if repeated else 0)


def test_eigh_falls_back_only_on_repeated_spectra():
    rng = np.random.default_rng(12)
    counts = {True: 0, False: 0}
    for trial in range(200):
        m = 2 + trial % 7
        lam = rng.permutation(np.arange(-m, m))[:m] * 0.5
        counts[False] += eigh_fallbacks(with_spectrum(lam, trial))[1]
        lam[1:] = lam[rng.integers(0, 2, m - 1)]
        lam[1] = lam[0]
        counts[True] += eigh_fallbacks(with_spectrum(lam, trial))[1]
    assert counts[False] == 0
    assert counts[True] > 0
    # a quaternionic matrix with a repeated eigenvalue: the even adjoint
    # eigenvectors of the double eigenvalue hold a vector and its partner
    g = with_spectrum([1.0, 1.0, 2.0], 0)
    assert g.c2.any()
    assert eigh_fallbacks(g)[1] == 1
    # a complex one decomposes C1 and never reaches the fallback
    assert eigh_fallbacks(QMatrix.eye(2))[1] == 0


@st.composite
def complex_hermitian(draw):
    """A complex Hermitian quaternion matrix (C2 = 0): U diag(lam) U^H for
    a spectrum of `spectra` and a complex unitary U (the identity when its
    seed is None), with up to m - 1 rows and columns set to zero."""
    lam, _, seed = draw(spectra())
    m = len(lam)
    u = np.eye(m)
    if seed is not None:
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(m, m))
                            + 1j * rng.normal(size=(m, m)))
    c1 = (u * lam) @ u.conj().T
    c1 = 0.5 * (c1 + c1.conj().T)
    zero = draw(st.lists(st.integers(0, m - 1), max_size=m - 1, unique=True))
    c1[zero, :] = 0.0
    c1[:, zero] = 0.0
    return QMatrix(c1, np.zeros((m, m), dtype=complex))


def paired_signature(a):
    """The signature of a Hermitian quaternion matrix from numpy's
    eigvalsh of its complex adjoint a, paired and thresholded here."""
    w = np.linalg.eigvalsh(a)
    lam = 0.5 * (w[0::2] + w[1::2])
    lam[np.abs(lam) <= INERTIA_EPS * np.abs(w).max(initial=0.0)] = 0.0
    return (int(np.sum(lam > 0)), int(np.sum(lam < 0)), int(np.sum(lam == 0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(complex_hermitian())
@example(QMatrix.eye(2))
@example(QMatrix.real(np.diag([2.0, 0.0, 0.0])))
@example(QMatrix.real(np.diag([2.0, -1.0, 0.0])))
@example(QMatrix.real(np.diag([-1.0, -1.0])))
def test_complex_gram_decomposes_c1(g):
    m, tol = g.shape[0], 1e-12 * max(1.0, g.norm())
    own, q = g.eigh()
    assert not q.c2.any()
    assert (q.h @ q - QMatrix.eye(m)).norm() <= tol
    assert (q @ QMatrix.real(np.diag(own)) @ q.h - g).norm() <= tol
    iner = inertia(g)
    assert iner.as_tuple() == paired_signature(g.adjoint())

    zero_row = not np.abs(g.c1).max(axis=1).all()
    fails = (iner.n_minus > 1 or iner.rank == 0
             or (iner.n_minus == 1 and zero_row))
    for model in (BALL, SIEGEL):
        if fails:
            with pytest.raises(RealizationError):
                realize(g, m, model)
            continue
        pts = realize(g, m, model)
        assert all(p.model == model and not p.qm.c2.any() for p in pts)
        assert realization_error(pts, g) <= 1e-10 * (1 + g.norm())

    # one C2 entry (and its Hermitian mirror) of 1e-14 of the norm takes
    # the adjoint path and keeps the signature
    if m > 1 and g.norm() > 0.0:
        nudged = g.copy()
        nudged.c2[0, 1] = 1e-14 * g.norm()
        nudged.c2[1, 0] = -nudged.c2[0, 1]
        with mock.patch.object(QMatrix, "adjoint", autospec=True,
                               side_effect=QMatrix.adjoint) as adjoint:
            assert inertia(nudged) == iner
        assert adjoint.call_count == 1


# ---------------------------------------------------------------------------
# span dimension

def test_span_of_parabolic_triple():
    pts = example_parabolic_triple()
    assert span_dimension(pts) == 2
    iner = inertia(gram(pts))
    assert iner.rank == 1  # one less than the span: degenerate span


def test_span_of_orthonormal_frame():
    pts = (ball(1, 0, 0, 0), ball(0, 1, 0, 0), ball(0, 0, 1, 0))
    assert span_dimension(pts) == 3


def test_inertia_sandwich_random():
    for trial in range(30):
        pts = random_regular_tuple(3, 4, seed=300 + trial)
        k = span_dimension(pts)
        iner = inertia(gram(pts))
        assert k - 1 <= iner.rank <= k
        assert iner.n_minus <= 1
    for trial in range(30):
        pts = random_null_tuple(3, 4, seed=400 + trial)
        k = span_dimension(pts)
        iner = inertia(gram(pts))
        assert k - 1 <= iner.rank <= k
        assert iner.n_minus == 1


# ---------------------------------------------------------------------------
# the Lifts record

def off_cone(points, factor):
    """The tuple with the first lift's last entry multiplied by factor."""
    entries = points[0].entries()
    entries[-1] = entries[-1] * factor
    return (HVector.from_entries(entries, points[0].model),) + tuple(points[1:])


@pytest.mark.parametrize("model", [BALL, SIEGEL])
def test_lifts_record_holds_stack_norms_gram_and_classes(model):
    pts = random_null_tuple(2, 4, seed=3, model=model)
    lifts = Lifts(pts)
    assert lifts == pts and Lifts(lifts) is lifts
    assert (lifts.p - QMatrix.from_columns(p.qm for p in pts)).norm() == 0.0
    assert np.allclose(lifts.norms, [p.norm() for p in pts], rtol=1e-15)
    assert (lifts.g - gram(pts)).norm() <= 1e-15 * lifts.g.norm()
    assert lifts.classes == [classify(p) for p in pts]
    assert lifts.eps == 1e-9


def test_lifts_classes_follow_their_eps():
    pts = off_cone(random_null_tuple(2, 4, seed=3), 1.0 - 1e-6)
    assert Lifts(pts).classes[0] == classify(pts[0]) != PointClass.NULL
    loose = Lifts(pts, 1e-4)
    assert loose.eps == 1e-4
    assert loose.classes == [classify(p, 1e-4) for p in pts]
    assert set(loose.classes) == {PointClass.NULL}
    # a record passes through at its own eps and is made again at another
    assert Lifts(loose) is loose and Lifts(loose, 1e-4) is loose
    tight = Lifts(loose, 1e-12)
    assert tight is not loose and tight == loose and tight.eps == 1e-12
    assert tight.classes == [classify(p, 1e-12) for p in pts]


def test_lifts_reject_zero_vectors_and_mixed_tuples():
    with pytest.raises(DomainError):
        Lifts([ball(1, 0, 1), ball(0, 0, 0)])
    with pytest.raises(UsageError):
        Lifts([ball(1, 0, 1), ball(1, 0, 0, 1)])
    with pytest.raises(UsageError):
        Lifts([ball(1, 0, 1), HVector.from_entries((1, 0, 1), SIEGEL)])
    with pytest.raises(UsageError):
        Lifts([])


def test_unit_gram_of_null_lifts_is_a_domain_error():
    # the unit-diagonal Gram matrix divides by sqrt(g_aa): a null lift's
    # g_aa is zero or of either sign, which gave NaN entries and a NaN
    # zero pattern, with only a RuntimeWarning
    lifts = Lifts(random_null_tuple(3, 5, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("unit", "nz"):
            with pytest.raises(DomainError, match="positive diagonal"):
                getattr(lifts, name)


def counting(monkeypatch, module, name):
    """Count the calls of module.name made through the module's global."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("points", [
    random_null_tuple(3, 5, seed=1, model=SIEGEL),
    random_regular_tuple(2, 4, seed=1),
    random_parabolic_tuple(3, 5, seed=1),
], ids=["boundary", "regular", "parabolic"])
def test_each_tuple_gets_one_gram_matrix(monkeypatch, points):
    calls = counting(monkeypatch, gram_module, "gram")
    tuple_coordinate(points)
    assert len(calls) == 1


def test_parabolic_triangle_gets_one_gram_matrix(monkeypatch):
    calls = counting(monkeypatch, gram_module, "gram")
    assert classify_triangle(*example_parabolic_triple()).value \
        == "Parabolic111"
    assert len(calls) == 1


def test_stages_validate_a_record_once(monkeypatch):
    # each point class has one distinctness rule, in gram, which a record
    # passes once however many stages validate it
    rules = {name: counting(monkeypatch, gram_module, name)
             for name in ("check_distinct", "check_nonvanishing")}
    lifts = Lifts(random_regular_tuple(2, 4, seed=2))
    positive.positive_coordinate(lifts)
    positive.regular_coordinate(lifts)
    positive.one_normalize(lifts)
    assert lifts.checked == PointClass.POSITIVE
    assert [len(c) for c in rules.values()] == [1, 0]

    lifts = Lifts(random_regular_tuple(2, 3, seed=3))
    triangle_params(lifts)
    classify_triangle(lifts)
    positive.positive_coordinate(lifts)
    assert [len(c) for c in rules.values()] == [2, 0]

    lifts = Lifts(random_null_tuple(2, 4, seed=2))
    boundary.boundary_coordinate(lifts)
    boundary.semi_normalize(lifts)
    assert lifts.checked == PointClass.NULL
    assert [len(c) for c in rules.values()] == [2, 1]
    with pytest.raises(DomainError, match="positive points"):
        positive.positive_coordinate(lifts)


def test_realized_class_vouches_for_no_distinctness():
    # the class of realized vertices is read off the signature of G, which
    # names one when two equal rows of G put two vertices together; a
    # triangle function given their record still checks them distinct
    pts, cls = realize_and_classify(TriangleParams(0, 0, 1, 0))
    assert cls == TriangleClass.ELLIPTIC
    with pytest.raises(DegenerateInputError, match="points 1 and 2 coincide"):
        classify_triangle(Lifts(pts))


def random_forest(lifts, rng):
    """Edges (c, t) of a random forest on the nonzero products of the
    record, each t after its c; about one point in five is a new root."""
    order = rng.permutation(len(lifts)).tolist()
    nz, edges = nonzero_products(lifts.g.modulus()), []
    for k, t in enumerate(order[1:], 1):
        parents = [c for c in order[:k] if nz[c, t]]
        if parents and rng.random() > 0.2:
            edges.append((int(rng.choice(parents)), t))
    return edges


def assert_aligned(lifts, edges, d0, d):
    """Every root keeps its factor and every edge's rescaled product
    conj(d_t) g_tc d_c is real and positive: 1 below a null t, and
    |g_tc| |d_c| / sqrt(g_tt) below a positive t, which is |u_ct| when the
    roots keep their default factors 1/sqrt(g_aa)."""
    g, targets = lifts.g, {t for _, t in edges}
    diag = g.c1.diagonal().real
    for a in set(range(len(lifts))) - targets:
        assert d[a] == (d0[a] if d0 else quat(1.0 / math.sqrt(diag[a])))
    for c, t in edges:
        x = d[t].conj() * g.entry(t, c) * d[c]
        if lifts.classes[t] == PointClass.NULL:
            want = 1.0
        else:
            want = abs(g.entry(t, c)) * abs(d[c]) / math.sqrt(diag[t])
        if d0 is None:
            assert abs(want - lifts.unit.modulus()[c, t]) <= 1e-12 * want
        assert abs(x - want) <= 1e-12 * want, (c, t, x, want)


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("make", [random_null_tuple, random_regular_tuple,
                                  random_parabolic_tuple],
                         ids=["boundary", "regular", "parabolic"])
def test_align_normalizes_every_forest_edge(make, model):
    for seed in range(12):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        lifts = Lifts([p.rescale(x).scaled(scale) for p, x in zip(
            make(n, m, seed, model), random_rescaling(m, seed=100 + seed))])
        edges = random_forest(lifts, rng)
        # null lifts have no 1/sqrt(g_aa): their roots are given a factor
        d0 = ([random_quaternion(rng) for _ in range(m)]
              if lifts.classes[0] == PointClass.NULL else None)
        assert_aligned(lifts, edges, d0, align(lifts, edges, d0))


def test_align_follows_the_class_of_each_target():
    # one forest over null and positive lifts: a positive root with a
    # child of either class, a null child of that null child, and a null
    # root with a positive child
    rng = np.random.default_rng(7)
    pos = random_regular_tuple(2, 3, seed=7)
    null = random_null_tuple(2, 3, seed=8)
    lifts = Lifts([pos[0], null[0], pos[1], null[1], pos[2], null[2]])
    assert [c.value[0] for c in lifts.classes] == list("pnpnpn")
    edges = [(0, 2), (0, 3), (3, 5), (1, 4)]
    d0 = [random_quaternion(rng) for _ in range(6)]
    assert_aligned(lifts, edges, d0, align(lifts, edges, d0))


def test_a_record_at_another_eps_is_classified_again():
    pts = (ball(1, 0, 0.9), ball(0, 1, 0.9), ball(0.7, 0.7, 0.9))
    record = Lifts(pts)
    assert set(record.classes) == {PointClass.POSITIVE}
    loose = Lifts(record, eps=0.5)
    assert loose is not record and loose.eps == 0.5
    assert loose.classes == [classify(p, 0.5) for p in pts]
    assert set(loose.classes) == {PointClass.NULL}


def test_stages_read_the_zero_pattern_of_a_record_once(monkeypatch):
    # the zero-product rule runs once per record, however many stages read
    # the pattern, through whichever module's global they call it
    calls = [counting(monkeypatch, module, "nonzero_products")
             for module in (gram_module, positive, triangle)
             if hasattr(module, "nonzero_products")]
    lifts = Lifts(random_regular_tuple(2, 4, seed=2))
    positive.positive_coordinate(lifts)
    positive.one_normalize(lifts)
    assert sum(map(len, calls)) == 1

    lifts = Lifts(random_regular_tuple(2, 3, seed=3))
    triangle.triangle_params(lifts)
    triangle.triangle_params(lifts)
    assert sum(map(len, calls)) == 2


def test_stages_walk_each_zero_pattern_once(monkeypatch):
    # the partition's blocks and the regular forest come from one sweep of
    # a zero pattern, kept in a bounded cache: two generic (2, 4) records
    # share the complete pattern, and a parabolic (3, 5) record of another
    # pattern walks once more
    gram_module.pattern_plan.cache_clear()
    calls = counting(monkeypatch, gram_module, "spanning_forest")
    for seed in (2, 3):
        lifts = Lifts(random_regular_tuple(2, 4, seed=seed))
        positive.positive_coordinate(lifts)
        positive.regular_coordinate(lifts)
    assert len(calls) == 1
    positive.positive_coordinate(random_parabolic_tuple(3, 5, seed=1))
    assert len(calls) == 2
    assert gram_module.pattern_plan.cache_info().maxsize is not None


def test_positive_coordinate_reads_the_unit_gram_once(monkeypatch):
    # the partition is read off the record's unit-diagonal Gram matrix, so
    # no stage normalizes twice, and a regular coordinate rescales nothing;
    # every near pair of lifts shares one SVD, the pairs are listed only
    # when there is one, and the span is asked for only without a negative
    # eigenvalue; a pair with |u_ab| > 1 (t = 1.249 here) makes the tuple
    # regular without a spectrum, and the modulus of the unit-diagonal Gram
    # matrix is taken once per record
    regular = Lifts(random_regular_tuple(2, 4, seed=2))
    parabolic = Lifts(random_parabolic_tuple(3, 5, seed=1))
    one = counting(monkeypatch, positive, "one_normalize")
    units = [counting(monkeypatch, module, "unit_diagonal")
             for module in (positive, gram_module)]
    rescale = counting(monkeypatch, positive, "rescale_gram")
    svd = counting(monkeypatch, np.linalg, "svd")
    argwhere = counting(monkeypatch, np, "argwhere")
    spectra = counting(monkeypatch, positive, "inertia")
    moduli, modulus = [], QMatrix.modulus

    def counted(self):
        moduli.append(self)
        return modulus(self)
    monkeypatch.setattr(QMatrix, "modulus", counted)

    def unit_moduli(lifts):
        return sum(x is lifts.unit for x in moduli)

    positive.positive_coordinate(regular)
    assert len(one) == 0 and sum(map(len, units)) == 1 and len(rescale) == 0
    assert len(svd) == 0 and len(argwhere) == 0
    assert len(spectra) == 0 and unit_moduli(regular) == len(moduli) == 1

    assert positive.positive_coordinate(parabolic).kind == "parabolic"
    assert len(svd) == 2 and len(argwhere) == 1
    assert len(spectra) == 1 and unit_moduli(parabolic) == 1

    # every |u_ab| <= 1: only the spectrum can tell
    within = Lifts(random_regular_tuple(2, 4, seed=4))
    assert positive.positive_coordinate(within).kind == "regular"
    assert len(spectra) == 2 and unit_moduli(within) == 1


def test_coordinates_conjugate_once_per_sub_block_or_t_vector(monkeypatch):
    # a regular coordinate takes its canonical entries from the
    # block-normalized products without a rescale: one conjugation per
    # sub-block of at least two points, none for a one-point sub-block;
    # a boundary coordinate rescales once and conjugates its t-vector once
    regular = Lifts(random_regular_tuple(3, 5, seed=2))
    g = QMatrix.eye(5)
    for a, b, q in ((0, 1, Quaternion(0.3, 0.1)),
                    (2, 3, Quaternion(0.2, 0.1, -0.05, 0.02))):
        g.set_entry(a, b, q)
        g.set_entry(b, a, q.conj())
    # sub-blocks (0, 1), (2, 3) and (4,)
    split = Lifts(realize(g, 5))
    null = Lifts(random_null_tuple(3, 5, seed=1))
    rescale = [counting(monkeypatch, module, "rescale_gram")
               for module in (positive, boundary)]
    conj = [counting(monkeypatch, module, "conjugate_vector")
            for module in (positive, quat_module)]
    scans, scan = [], quat_module.normalizing_rotation

    def recording(v):
        rot, tag = scan(v)
        scans.append(tag)
        return rot, tag
    monkeypatch.setattr(positive, "normalizing_rotation", recording)
    positive.regular_coordinate(regular)
    assert len(rescale[0]) == 0 and len(conj[0]) == 1 and len(conj[1]) == 0
    assert scans and "Z_R" not in scans
    assert positive.regular_coordinate(split).structure.sub_blocks == (
        ((0, 1),), ((2, 3),), ((4,),))
    assert len(rescale[0]) == 0 and len(conj[0]) == 3
    assert boundary.boundary_coordinate(null).stratum != "Z_R"
    assert len(rescale[1]) == 1 and len(conj[1]) == 1


def test_parabolic_coordinate_rescales_nothing(monkeypatch):
    # a parabolic coordinate checks only the within-block products that
    # carry a phase and scales its lifts by one factor row: no rescaled
    # Gram matrix, no row built entry by entry, and one product for J z0
    # and one for the heights and the orthogonality test together
    records = [Lifts(random_parabolic_tuple(3, 5, seed=1, model=model))
               for model in (BALL, SIEGEL)]
    rescale = [counting(monkeypatch, module, "rescale_gram")
               for module in (positive, gram_module)]
    entries = counting(monkeypatch, QMatrix, "from_entries")
    matmul = counting(monkeypatch, QMatrix, "__matmul__")
    for lifts in records:
        assert positive.positive_coordinate(lifts).kind == "parabolic"
    assert sum(map(len, rescale)) == 0 and len(entries) == 0
    assert len(matmul) == 2 * len(records)


def test_nonvanishing_lists_pairs_only_when_a_product_vanishes(monkeypatch):
    # a null tuple with every product clear of zero costs no np.argwhere;
    # one with a vanishing product names its first pair as before
    null = Lifts(random_null_tuple(3, 5, seed=1))
    z = HVector.from_entries([0, 1, 1])
    orthogonal = Lifts([HVector.from_entries([1, 0, 1]), z,
                        z.rescale(Quaternion(0, 1)),
                        z.rescale(Quaternion(0, 0, 1))])
    argwhere = counting(monkeypatch, np, "argwhere")
    boundary.boundary_coordinate(null)
    assert len(argwhere) == 0
    with pytest.raises(DegenerateInputError,
                       match="points 2 and 3 have vanishing product"):
        boundary.boundary_coordinate(orthogonal)
    assert len(argwhere) == 1


def test_coordinates_use_cached_masks_and_the_record_adjoint(monkeypatch):
    null = Lifts(random_null_tuple(3, 5, seed=1))
    regular = Lifts(random_regular_tuple(2, 4, seed=2))
    pts = random_regular_tuple(3, 5, seed=3, model=SIEGEL)
    triu = counting(monkeypatch, np, "triu")
    boundary.boundary_coordinate(null)
    positive.positive_coordinate(regular)
    assert len(triu) == 0

    matmul = counting(monkeypatch, QMatrix, "__matmul__")
    gram(pts)
    gram(Lifts(pts))
    assert len(matmul) == 0


# ---------------------------------------------------------------------------
# samplers

@pytest.mark.parametrize("n", [0, -1])
def test_samplers_reject_dimension_below_one(n):
    rng = np.random.default_rng(0)
    for draw in (random_null_point, random_positive_point):
        with pytest.raises(UsageError):
            draw(n, rng)
    for kind in ("boundary-tuple", "positive-regular", "positive-parabolic"):
        with pytest.raises(UsageError):
            random_tuple(kind, n, 3, seed=0)


@pytest.mark.parametrize("draw, message", [
    (lambda: random_tuple("positive-elliptic", 2, 3, seed=0), "unknown"),
    (lambda: random_parabolic_tuple(3, 4, seed=0, k=0), "1 <= k"),
    (lambda: random_parabolic_tuple(3, 4, seed=0, k=3), "1 <= k"),
], ids=["unknown-kind", "no-block", "k-equals-n"])
def test_sampler_arguments_out_of_range_are_usage_errors(draw, message):
    with pytest.raises(UsageError, match=message):
        draw()


# ---------------------------------------------------------------------------
# the span rule: one decision for the partition, the triangle classes, the
# regular sampler and the m = 2 closed form

def span_rule(lifts):
    return degenerate_span(lifts.mod, lambda: inertia(lifts.unit),
                           lambda: span_dimension(lifts), lifts.nz)


def sampler_accepts(lifts):
    """Whether `random_regular_tuple` keeps the ball lifts of the record
    when every draw yields them: it returns them, or it gives up."""
    ball = [to_model(p, BALL) for p in lifts]
    draws = itertools.cycle(ball)
    with mock.patch.object(sampling, "random_positive_point",
                           lambda n, rng, model: next(draws)):
        try:
            got = random_regular_tuple(lifts[0].n, len(lifts), seed=0)
        except UsageError:
            return False
    assert all(map(operator.is_, got, ball))
    return True


def assert_readers_follow_the_span_rule(lifts):
    degenerate = span_rule(lifts)
    kind = positive.positive_coordinate(lifts).kind
    assert kind == ("parabolic" if degenerate else "regular")
    assert sampler_accepts(lifts) == (not degenerate)
    if len(lifts) == 2:
        t = float(lifts.mod[0, 1])
        assert (PairConfiguration.from_t(t).kind == "asymptotic") \
            == degenerate
    if len(lifts) == 3:
        try:
            cls = classify_triangle(lifts)
        except DomainError as exc:
            # a positive definite 3-space, or a degenerate span of rank 2
            assert ("(3, 0)" in str(exc)) != degenerate, exc
        else:
            assert (cls == TriangleClass.PARABOLIC111) == degenerate
    return degenerate


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("regular", "parabolic")),
       n=st.integers(2, 4), m=st.integers(2, 6),
       seed=st.integers(0, 2 ** 16), model=st.sampled_from((BALL, SIEGEL)),
       exponent=st.floats(-6.0, 6.0))
def test_every_reader_follows_the_span_rule(kind, n, m, seed, model,
                                            exponent):
    make = random_regular_tuple if kind == "regular" \
        else random_parabolic_tuple
    points = make(n, m, seed, model)
    lifts = Lifts([p.rescale(x).scaled(10.0 ** exponent) for p, x in
                   zip(points, random_rescaling(m, seed=seed + 1))])
    assert assert_readers_follow_the_span_rule(lifts) == (kind == "parabolic")


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_realized_parabolic_triangles_follow_the_span_rule(model, scale):
    pts = realize_triangle(TriangleParams(1.0, 1.0, 1.0, 0.0), model)
    lifts = Lifts([p.scaled(scale) for p in pts])
    assert assert_readers_follow_the_span_rule(lifts)
    assert classify_triangle(lifts) == TriangleClass.PARABOLIC111


@pytest.mark.parametrize("k", range(-49, 50, 2))
def test_pairs_near_the_zero_eigenvalue_follow_the_span_rule(k):
    # t = 1 + k 1e-10: 1 - t is zeroed for |k| <= 19 (INERTIA_EPS (1 + t)),
    # and a hyperbolic pair certifies t from k = 41 on (t - 1 > 4
    # INERTIA_EPS t); odd k keep every t off both thresholds
    t = 1.0 + k * 1e-10
    g = QMatrix.eye(2)
    g.set_entry(0, 1, quat(t))
    g.set_entry(1, 0, quat(t))
    pts = realize(g, 2)
    degenerate = assert_readers_follow_the_span_rule(Lifts(pts))
    assert degenerate == (abs(k) <= 19)
    assert (pair_configuration(*pts).kind == "asymptotic") == degenerate
