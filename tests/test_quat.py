"""Quaternion arithmetic and the rotation-normalization primitives."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmoduli.errors import DegenerateInputError, DomainError, UsageError
from hqmoduli.quat import (I, J, K, ONE, ImVector3, Quaternion, canonical_sign,
                           conjugate_vector, mu, normalizing_rotation, nu,
                           quat, rotation_normalize_vector)

TOL = 1e-12
POST_TOL = 1e-10

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def random_unit(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


# ---------------------------------------------------------------------------
# arithmetic

def test_defining_relations():
    assert (I * J).isclose(K, TOL)
    assert (J * K).isclose(I, TOL)
    assert (K * I).isclose(J, TOL)
    assert (I * I).isclose(-ONE, TOL)


def test_expand_basis_products():
    got = (ONE + I) * (ONE + J)
    assert got.isclose(Quaternion(1, 1, 1, 1), TOL)


@given(quats, quats)
@settings(max_examples=200)
def test_modulus_multiplicative(q1, q2):
    assert abs(abs(q1 * q2) - abs(q1) * abs(q2)) <= TOL * (1 + abs(q1) * abs(q2))


@given(quats, quats)
@settings(max_examples=200)
def test_conj_antihomomorphism(q1, q2):
    lhs = (q1 * q2).conj()
    rhs = q2.conj() * q1.conj()
    assert lhs.isclose(rhs, TOL)


@given(quats, quats)
@settings(max_examples=200)
def test_re_of_product_symmetric(q1, q2):
    assert abs((q1 * q2).re() - (q2 * q1).re()) <= TOL * (1 + abs(q1) * abs(q2))


def test_conj_times_self_is_norm_squared():
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    assert (q.conj() * q).isclose(quat(q.norm2()), TOL)


def test_inverse():
    q = Quaternion(2.0, 1.0, -1.0, 0.5)
    assert (q * q.inverse()).isclose(ONE, TOL)
    assert (q.inverse() * q).isclose(ONE, TOL)


def test_inverse_of_zero_raises():
    with pytest.raises(DomainError):
        Quaternion().inverse()


def test_coercion_and_json_round_trip():
    assert quat(2.5).isclose(Quaternion(2.5), TOL)
    assert quat(1 + 2j).isclose(Quaternion(1, 2), TOL)
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    assert Quaternion.from_json(q.to_json()).isclose(q, 0.0)


def test_value_contract():
    # an immutable value: hashed as its components, equal by them, shown
    # by name, and written to JSON as a list of four floats
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    with pytest.raises(AttributeError):
        q.a0 = 1.0
    assert hash(q) == hash((0.5, -1.0, 2.0, 0.25))
    assert q == Quaternion(0.5, -1.0, 2.0, 0.25) and q != q.conj()
    assert Quaternion(1.0) == ONE and Quaternion(1.0) != 1.0
    assert len({q, Quaternion(0.5, -1.0, 2.0, 0.25)}) == 1
    assert repr(q) == "Quaternion(a0=0.5, a1=-1.0, a2=2.0, a3=0.25)"
    assert pickle.loads(pickle.dumps(q)) == q and copy.deepcopy(q) == q
    assert (q.a0, q.a1, q.a2, q.a3) == (0.5, -1.0, 2.0, 0.25)
    js = q.to_json()
    assert type(js) is list and len(js) == 4
    assert all(isinstance(x, float) for x in js)


def test_numpy_scalars_act_as_reals():
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    for x in (np.float64(2.0), 2.0, np.int64(2), np.int32(2), np.float32(2.0)):
        assert type(x * q) is Quaternion and (x * q).isclose(q * 2.0, 0.0)
        assert type(x + q) is Quaternion and (x + q).isclose(q + 2.0, 0.0)
        assert type(q * x) is Quaternion and (q * x).isclose(q * 2.0, 0.0)


def test_division_by_numpy_reals_is_componentwise():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = Quaternion(*rng.normal(size=4).tolist())
        assert q / np.int64(3) == q / 3.0
        assert q / np.float32(3.0) == q / 3.0
        assert q / np.float64(3.0) == q / 3.0
        assert all(type(x) is float for x in q / np.float32(3.0))


# ---------------------------------------------------------------------------
# nu

def nu_post(v):
    n = nu(v)
    got = n.conj() * v.to_quaternion() * n
    return abs(got - quat(complex(0, v.norm())))


def test_nu_of_i_axis():
    assert nu(ImVector3(1, 0, 0)).isclose(I, TOL)
    assert nu_post(ImVector3(1, 0, 0)) <= POST_TOL


def test_nu_degenerate_branch():
    # negative i-axis: the generic formula divides by zero, j is used
    assert nu(ImVector3(-1, 0, 0)).isclose(J, TOL)
    assert nu_post(ImVector3(-1, 0, 0)) <= POST_TOL


def test_nu_of_j_direction():
    v = ImVector3(0, 2, 0)
    n = nu(v)
    got = n.conj() * v.to_quaternion() * n
    assert got.isclose(Quaternion(0, 2, 0, 0), POST_TOL)


def test_nu_zero_raises():
    with pytest.raises(DomainError):
        nu(ImVector3(0, 0, 0))


def test_nu_postcondition_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        v = ImVector3(*rng.normal(size=3))
        if v.norm() < 1e-8:
            continue
        assert nu_post(v) <= POST_TOL * v.norm()
        assert abs(abs(nu(v)) - 1.0) <= POST_TOL


NEAR_AXIS = [10.0 ** -k for k in range(3, 16)]


@pytest.mark.parametrize("eps", NEAR_AXIS)
def test_nu_stays_unit_and_exact_near_the_negative_i_axis(eps):
    # r + x1 cancels as v1 nears -i; nu must stay unit to rounding and
    # still send v1 onto |v1| i
    for v in (ImVector3(-1.0, eps, 0.0), ImVector3(-2.0, eps, -eps),
              ImVector3(-1.0, 0.0, eps)):
        assert abs(abs(nu(v)) - 1.0) <= 5e-16
        assert nu_post(v) <= 1e-15 * v.norm()


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
def test_normalize_near_the_negative_i_axis_is_conjugation_invariant(eps):
    # the first imaginary part lies eps off -i, so the rotation goes
    # through the near-degenerate branch of nu for v but not for its
    # conjugates
    rng = np.random.default_rng(19)
    for _ in range(50):
        v = [Quaternion(0.3, -1.0, eps, 0.0),
             *(Quaternion(*rng.normal(size=4)) for _ in range(2))]
        u = random_unit(rng)
        _, nv, tv = rotation_normalize_vector(v)
        _, nw, tw = rotation_normalize_vector([u.conj() * q * u for q in v])
        assert tv == tw == "P(2)"
        assert max(abs(a - b) for a, b in zip(nv, nw)) <= 1e-13


# ---------------------------------------------------------------------------
# mu

def mu_post(v1, v2):
    m = mu(v1, v2)
    g1 = m.conj() * v1.to_quaternion() * m
    g2 = m.conj() * v2.to_quaternion() * m
    r1, r2, d = v1.norm(), v2.norm(), v1.x * v2.x + v1.y * v2.y + v1.z * v2.z
    want1 = quat(complex(0, r1))
    want2 = Quaternion(0, d / r1, math.sqrt(max((r1 * r2) ** 2 - d * d, 0.0)) / r1, 0)
    return max(abs(g1 - want1), abs(g2 - want2))


def test_mu_canonical_pair_is_identity():
    m = mu(ImVector3(1, 0, 0), ImVector3(0, 1, 0))
    assert m.isclose(ONE, 1e-10)


def test_mu_rotates_k_to_j():
    m = mu(ImVector3(1, 0, 0), ImVector3(0, 0, 1))
    got = m.conj() * K * m
    assert got.isclose(J, POST_TOL)
    # the rotation fixing i and sending k to j is e^{i pi/4} up to sign
    c = math.cos(math.pi / 4)
    assert min(abs(m - Quaternion(c, c)), abs(m + Quaternion(c, c))) <= 1e-10


def test_mu_already_canonical_second_vector():
    v1, v2 = ImVector3(3, 0, 0), ImVector3(4, 5, 0)
    m = mu(v1, v2)
    assert min(abs(m - ONE), abs(m + ONE)) <= 1e-10
    got = m.conj() * v2.to_quaternion() * m
    assert got.isclose(Quaternion(0, 4, 5, 0), POST_TOL)
    assert mu_post(v1, v2) <= POST_TOL


def test_independence_is_decided_at_the_callers_scale():
    # w is parallel to v up to a direction error of 1e-9, the rounding
    # noise of an imaginary part 1e-6 of the data: against |w| it passes
    # for independent, against the data's scale 1 it does not
    v, w = ImVector3(1.0, 0.0, 0.0), ImVector3(1e-6, 1e-15, 0.0)
    assert v.is_independent_of(w, w.norm())
    assert not v.is_independent_of(w, 1.0)
    assert normalizing_rotation([Quaternion(1.0, 0.5),
                                 Quaternion(1.0, 1e-6, 1e-15)])[1] == "P_C"


def test_mu_dependent_raises():
    with pytest.raises(DegenerateInputError):
        mu(ImVector3(1, 2, 3), ImVector3(2, 4, 6))


def test_mu_nearly_dependent_raises():
    # a nearly parallel pair leaves a nonzero part of v2 off the i-axis,
    # so only mu's own independence test rejects it
    with pytest.raises(DegenerateInputError):
        mu(ImVector3(1, 2, 3), ImVector3(2.0, 4.0, 6.0 + 1e-12))


def test_normalizing_rotation_tests_its_pair_once(monkeypatch):
    # the rotation of a P-stratum vector is built without mu's repeat of
    # the test that found its second independent imaginary part
    scales, test = [], ImVector3.is_independent_of

    def counted(self, other, scale):
        scales.append(scale)
        return test(self, other, scale)
    monkeypatch.setattr(ImVector3, "is_independent_of", counted)
    v = [Quaternion(1.0, 0.5), Quaternion(0.3, 0.0, 0.7)]
    rot, tag = normalizing_rotation(v)
    assert tag == "P(2)" and len(scales) == 1
    assert rot == mu(v[0].im_vec(), v[1].im_vec())


def test_mu_postcondition_and_sign_convention_random():
    rng = np.random.default_rng(13)
    for _ in range(300):
        v1 = ImVector3(*rng.normal(size=3))
        v2 = ImVector3(*rng.normal(size=3))
        if not v1.is_independent_of(v2, v2.norm()):
            continue
        m = mu(v1, v2)
        assert mu_post(v1, v2) <= POST_TOL * max(v1.norm(), v2.norm()) ** 2
        assert m.a0 >= -1e-15  # canonical sign representative


def test_mu_unique_up_to_sign():
    # perturbing mu by any rotation that is not +-1 breaks a postcondition
    v1, v2 = ImVector3(1.0, -0.5, 0.3), ImVector3(0.2, 1.1, -0.7)
    m = mu(v1, v2)
    base = mu_post(v1, v2)
    assert base <= POST_TOL
    t = 0.3
    for axis in (I, J, K):
        twist = quat(math.cos(t)) + axis * math.sin(t)
        cand = m * twist
        g1 = cand.conj() * v1.to_quaternion() * cand
        g2 = cand.conj() * v2.to_quaternion() * cand
        dev = max(abs(g1 - quat(complex(0, v1.norm()))), abs(g2 - (m.conj() * v2.to_quaternion() * m)))
        assert dev > 1e-3


# ---------------------------------------------------------------------------
# canonical_sign and rotation_normalize_vector

def test_canonical_sign():
    assert canonical_sign(Quaternion(-1, 2, 0, 0)).isclose(Quaternion(1, -2, 0, 0), TOL)
    assert canonical_sign(Quaternion(0, -3, 1, 0)).isclose(Quaternion(0, 3, -1, 0), TOL)
    assert canonical_sign(ONE).isclose(ONE, TOL)


def test_normalize_all_real_vector():
    rot, out, tag = rotation_normalize_vector([quat(-1), quat(2), quat(3)])
    assert rot.isclose(ONE, TOL)
    assert tag == "Z_R"
    assert [q.a0 for q in out] == [-1.0, 2.0, 3.0]


def test_normalize_complex_then_generic_entry():
    a = math.cos(math.pi / 4)
    v = [Quaternion(-a, -a), Quaternion(1, 0, 0, 1)]  # (-e^{-i pi/4}, 1+k)
    _, out, tag = rotation_normalize_vector(v)
    assert tag == "P(2)"
    # second entry lands in the open half-plane x0 + x1 i + x2 j, x2 > 0
    assert out[1].a2 > 0
    assert abs(out[1].a3) <= 1e-10
    # first entry keeps the complex form (rotated within the i-axis)
    assert abs(out[0].a2) <= 1e-9 and abs(out[0].a3) <= 1e-9


def test_normalize_first_entry_complex_only():
    v = [Quaternion(0.5, 0.25), quat(2.0)]
    _, out, tag = rotation_normalize_vector(v)
    assert tag == "P_C"
    assert out[0].a1 > 0 and abs(out[0].a2) <= 1e-12 and abs(out[0].a3) <= 1e-12


def test_normalize_leading_real_entries_shift_stratum():
    v = [quat(1.0), Quaternion(0.5, 0.0, 0.3, 0.0), Quaternion(0, 0, 0, 1.0)]
    _, out, tag = rotation_normalize_vector(v)
    assert tag == "Z(2,3)"
    assert abs(out[1].a2) <= 1e-10 and abs(out[1].a3) <= 1e-10
    assert out[1].a1 > 0


def test_normalize_stratum_is_scale_invariant():
    # the real/complex decision is relative to |q|: [1+i, 1+j] keeps its
    # tag at every scale (an absolute floor made it Z_R below ~1e-9)
    v = [Quaternion(1, 1), Quaternion(1, 0, 1)]
    _, want, _ = rotation_normalize_vector(v)
    for e in range(-12, 13):
        s = 10.0 ** e
        _, out, tag = rotation_normalize_vector([q * s for q in v])
        assert tag == "P(2)", e
        assert all(abs(a - b * s) <= 1e-12 * s for a, b in zip(out, want))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_json_rejects_non_finite(bad):
    assert Quaternion.from_json([1, 2, 3, 4]) == Quaternion(1, 2, 3, 4)
    for k in range(4):
        data = [0.0, 0.0, 0.0, 0.0]
        data[k] = bad
        with pytest.raises(UsageError):
            Quaternion.from_json(data)


def test_normalize_conjugation_invariant_and_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(200):
        v = [Quaternion(*rng.normal(size=4)) for _ in range(4)]
        u = random_unit(rng)
        w = [u.conj() * q * u for q in v]
        _, nv, tv = rotation_normalize_vector(v)
        _, nw, tw = rotation_normalize_vector(w)
        assert tv == tw
        assert max(abs(a - b) for a, b in zip(nv, nw)) <= 1e-9
        _, nn, tn = rotation_normalize_vector(nv)
        assert tn == tv
        assert max(abs(a - b) for a, b in zip(nn, nv)) <= 1e-9


# ---------------------------------------------------------------------------
# conjugate_vector and normalizing_rotation

def test_conjugate_vector_is_the_two_product_form():
    # the 3x3 map agrees with conj(mu) q mu for unit and non-unit mu, on
    # generic, real and zero entries, within 1e-15 |mu|^2 |q|
    rng = np.random.default_rng(23)
    for trial in range(400):
        m = Quaternion(*rng.normal(size=4))
        if trial % 2:
            m = m * (10.0 ** rng.uniform(-4, 4))
        else:
            m = m / abs(m)
        v = [Quaternion(*rng.normal(size=4)) for _ in range(3)]
        v += [quat(rng.normal()), Quaternion(), Quaternion(0.0, 0.0, rng.normal())]
        got = conjugate_vector(m, v)
        assert all(type(q) is Quaternion for q in got)
        for q, g in zip(v, got):
            assert abs(g - m.conj() * q * m) <= 1e-15 * m.norm2() * abs(q)


def test_conjugate_vector_coerces_reals_and_complexes():
    got = conjugate_vector(I, [2.0, 1j])
    assert got == [Quaternion(2.0, 0.0, 0.0, 0.0), Quaternion(0.0, 1.0, 0.0, 0.0)]


@pytest.mark.parametrize("v, tag", [
    ([quat(-1), quat(2), quat(3)], "Z_R"),
    ([Quaternion(0.5, 0.25), quat(2.0)], "P_C"),
    ([quat(1.0), Quaternion(0.5, 0.0, 0.3), quat(4.0)], "Z_C(2)"),
    ([Quaternion(1, 1), Quaternion(1, 0, 1)], "P(2)"),
    ([quat(1.0), Quaternion(0.5, 0.0, 0.3), Quaternion(0, 0, 0, 1.0)], "Z(2,3)"),
])
def test_normalizing_rotation_is_the_scan_of_rotation_normalize_vector(v, tag):
    rot, out, want = rotation_normalize_vector(v)
    assert want == tag
    assert normalizing_rotation(v) == (rot, tag)
    assert out == (v if tag == "Z_R" else conjugate_vector(rot, v))


def test_normalizing_rotation_agrees_on_random_vectors():
    rng = np.random.default_rng(29)
    for _ in range(200):
        v = [Quaternion(*rng.normal(size=4)) for _ in range(int(rng.integers(1, 6)))]
        rot, _, tag = rotation_normalize_vector(v)
        assert normalizing_rotation(v) == (rot, tag)
    with pytest.raises(DomainError, match="empty vector"):
        normalizing_rotation([])
