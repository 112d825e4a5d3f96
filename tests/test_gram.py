"""Gram matrices: construction, actions, inertia, and realization."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmoduli.boundary import cartan_invariant, vector_to_gram
from hqmoduli.errors import DomainError, RealizationError, UsageError
from hqmoduli import boundary, positive
from hqmoduli.gram import (INERTIA_EPS, Inertia, Lifts, check_admissible, gram,
                           inertia, realization_error, realize,
                           rescale_gram, span_dimension)
from hqmoduli.hform import (BALL, SIEGEL, HVector, PointClass, cayley_matrix,
                            classify, form_matrix)
from hqmoduli.qmatrix import QMatrix, strict_upper
from hqmoduli.quat import ONE, Quaternion, quat
from hqmoduli.tol import STRUCTURE_TOL
from hqmoduli.positive import tuple_coordinate
from hqmoduli.sampling import (random_null_point, random_null_tuple,
                               random_parabolic_tuple, random_positive_point,
                               random_quaternion, random_rescaling,
                               random_regular_tuple, random_tuple,
                               random_unit_quaternion)
from hqmoduli.triangle import classify_triangle

ROUND_TRIP_TOL = 1e-8
# the package exports the function gram under the module's name
gram_module = importlib.import_module("hqmoduli.gram")


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
    assert g.is_hermitian(STRUCTURE_TOL)
    lifts = Lifts(pts)
    assert np.array_equal(lifts.adj, p.adjoint())
    assert (lifts.g - g).norm() == 0.0


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
    from hqmoduli.hform import random_isometry
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
        s.set_entry(0, 1, random_quaternion(rng, 0.5))
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
    # a record keeps the eps it was made with
    assert Lifts(loose, 1e-12) is loose


def test_lifts_reject_zero_vectors_and_mixed_tuples():
    with pytest.raises(DomainError):
        Lifts([ball(1, 0, 1), ball(0, 0, 0)])
    with pytest.raises(UsageError):
        Lifts([ball(1, 0, 1), ball(1, 0, 0, 1)])
    with pytest.raises(UsageError):
        Lifts([ball(1, 0, 1), HVector.from_entries((1, 0, 1), SIEGEL)])
    with pytest.raises(UsageError):
        Lifts([])


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
    distinct = counting(monkeypatch, positive, "_check_distinct")
    lifts = Lifts(random_regular_tuple(2, 4, seed=2))
    positive.positive_coordinate(lifts)
    positive.regular_coordinate(lifts)
    positive.one_normalize(lifts)
    assert len(distinct) == 1

    nonvanishing = counting(monkeypatch, boundary, "_nonvanishing")
    lifts = Lifts(random_null_tuple(2, 4, seed=2))
    boundary.boundary_coordinate(lifts)
    boundary.semi_normalize(lifts)
    assert len(nonvanishing) == 1


def test_positive_coordinate_reads_the_unit_gram_once(monkeypatch):
    # the partition is read off the record's unit-diagonal Gram matrix, so
    # no stage normalizes twice; every near pair of lifts shares one SVD,
    # and the span is asked for only without a negative eigenvalue
    regular = Lifts(random_regular_tuple(2, 4, seed=2))
    parabolic = Lifts(random_parabolic_tuple(3, 5, seed=1))
    one = counting(monkeypatch, positive, "one_normalize")
    units = [counting(monkeypatch, module, "unit_diagonal")
             for module in (positive, gram_module)]
    rescale = counting(monkeypatch, positive, "rescale_gram")
    svd = counting(monkeypatch, np.linalg, "svd")
    positive.positive_coordinate(regular)
    assert len(one) == 0 and sum(map(len, units)) == 1 and len(rescale) <= 2
    assert len(svd) == 0

    assert positive.positive_coordinate(parabolic).kind == "parabolic"
    assert len(svd) == 2


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
