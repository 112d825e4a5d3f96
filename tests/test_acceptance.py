"""End-to-end acceptance suite.

Each test exercises one top-level acceptance property at its stated
tolerance and runtime budget and prints a single PASS/FAIL line.
"""

import math
import time

import numpy as np

from hqmoduli.boundary import boundary_coordinate
from hqmoduli.errors import DomainError, RealizationError
from hqmoduli.gram import (gram, inertia, realization_error, realize,
                           span_dimension)
from hqmoduli.hform import (BALL, SIEGEL, HVector, pair_isometry, pair_moduli,
                            projective_distance, random_isometry)
from hqmoduli.positive import (congruent, detect_partition,
                               parabolic_coordinates, positive_coordinate)
from hqmoduli.qmatrix import QMatrix
from hqmoduli.quat import (I, ImVector3, conjugate_vector, mu, nu, quat,
                           rotation_normalize_vector)
from hqmoduli.sampling import (random_null_tuple, random_parabolic_tuple,
                               random_positive_point, random_quaternion,
                               random_regular_tuple, random_rescaling,
                               random_unit_quaternion)
from hqmoduli.triangle import (TriangleParams, gram_from_params,
                               realize_triangle, triangle_det,
                               triangle_exists)

COORD_TOL = 1e-8
EXACT_TOL = 1e-12


def _report(label, budget, start, failures):
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, (failures[:5], f"{elapsed:.2f}s of {budget}s budget")


def _apply_action(points, g, d):
    return tuple(g.apply(p).rescale(x) for p, x in zip(points, d))


def siegel(*entries):
    return HVector.from_entries(entries, SIEGEL)


def ball(*entries):
    return HVector.from_entries(entries, BALL)


# ---------------------------------------------------------------------------
# 1. Worked cross-ratio values for the explicit half-space triple.

def test_1_worked_chi_values_and_order_sensitivity():
    start = time.perf_counter()
    failures = []
    s = math.sqrt(8.0)
    pts = (siegel(0, 1, 0), siegel(s, 1, 0), siegel(1.5 * s, 1, 0))
    fwd = parabolic_coordinates(pts)
    rev = parabolic_coordinates(tuple(reversed(pts)))
    if len(fwd.entries) != 1 or abs(fwd.entries[0] - quat(3.0)) > EXACT_TOL:
        failures.append(("chi forward", fwd.entries))
    if len(rev.entries) != 1 or abs(rev.entries[0] - quat(1.5)) > EXACT_TOL:
        failures.append(("chi reversed", rev.entries))
    if congruent(pts, tuple(reversed(pts))):
        failures.append("forward and reversed orders reported congruent")
    _report("criterion 1 (worked cross-ratio values)", 1.0, start, failures)


# ---------------------------------------------------------------------------
# 2. The all-ones ball triple: parabolic with inertia (1, 0, 2).

def test_2_all_ones_triple_is_parabolic():
    start = time.perf_counter()
    failures = []
    p1 = ball(0, 1, 0)
    z = ball(1, 0, 1)
    pts = (p1, p1 + z.scaled(2.0), p1 + z.scaled(3.0))
    g = gram(pts)
    if any(abs(g.entry(a, b) - quat(1.0)) > 1e-12
           for a in range(3) for b in range(3)):
        failures.append("Gram matrix is not all-ones")
    if inertia(g).as_tuple() != (1, 0, 2):
        failures.append(("inertia", inertia(g).as_tuple()))
    if detect_partition(g, span_dimension(pts)).kind != "parabolic":
        failures.append("triple not detected as parabolic")
    if positive_coordinate(pts).kind != "parabolic":
        failures.append("coordinate is not of the parabolic kind")
    if congruent(pts, tuple(reversed(pts))):
        failures.append("forward and reversed orders reported congruent")
    _report("criterion 2 (all-ones parabolic triple)", 1.0, start, failures)


# ---------------------------------------------------------------------------
# 3. Invariance of moduli coordinates under isometries and rescalings.

def _boundary_match(ca, cb):
    return (ca.stratum == cb.stratum
            and abs(ca.alpha - cb.alpha) <= COORD_TOL
            and len(ca.entries) == len(cb.entries)
            and all(abs(a - b) <= COORD_TOL
                    for a, b in zip(ca.entries, cb.entries)))


def _positive_match(ca, cb):
    if ca.kind != cb.kind or ca.structure != cb.structure:
        return False
    if ca.kind == "parabolic":
        return (ca.stratum == cb.stratum
                and len(ca.entries) == len(cb.entries)
                and all(abs(a - b) <= COORD_TOL
                        for a, b in zip(ca.entries, cb.entries)))
    return (len(ca.entries) == len(cb.entries)
            and all(abs(a - b) <= COORD_TOL
                    for a, b in zip(ca.entries, cb.entries)))


def test_3_coordinate_invariance_under_action():
    start = time.perf_counter()
    failures = []
    trials = 1000
    for n, m in ((2, 4), (3, 5)):
        base = 100000 * n * m
        for trial in range(trials):
            pts = random_null_tuple(n, m, seed=base + trial)
            g = random_isometry(n, seed=base + trials + trial)
            d = random_rescaling(m, seed=base + 2 * trials + trial)
            ca = boundary_coordinate(pts)
            cb = boundary_coordinate(_apply_action(pts, g, d))
            if not _boundary_match(ca, cb):
                failures.append(("boundary", n, m, trial))
        for trial in range(trials):
            if trial % 10 == 0:
                pts = random_parabolic_tuple(n, m, seed=base + 3 * trials + trial)
                g = random_isometry(n, seed=base + 4 * trials + trial,
                                    model=SIEGEL)
            else:
                pts = random_regular_tuple(n, m, seed=base + 3 * trials + trial)
                g = random_isometry(n, seed=base + 4 * trials + trial)
            d = random_rescaling(m, seed=base + 5 * trials + trial)
            ca = positive_coordinate(pts)
            cb = positive_coordinate(_apply_action(pts, g, d))
            if not _positive_match(ca, cb):
                failures.append(("positive", n, m, trial))
    _report("criterion 3 (coordinate invariance)", 60.0, start, failures)


# ---------------------------------------------------------------------------
# 4. Realization round trip and rejection of inadmissible Gram matrices.

def test_4_realization_round_trip_and_rejections():
    start = time.perf_counter()
    failures = []
    shapes = ((2, 3), (2, 4), (3, 4), (3, 5))
    for trial in range(1000):
        n, m = shapes[trial % 4]
        g = gram(random_null_tuple(n, m, seed=40000 + trial))
        if realization_error(realize(g, n), g) > COORD_TOL * (1 + g.norm()):
            failures.append(("boundary round trip", n, m, trial))
    for trial in range(1000):
        n, m = shapes[trial % 4]
        if trial % 10 == 0:
            g = gram(random_parabolic_tuple(n, m, seed=50000 + trial,
                                            model=BALL))
        else:
            g = gram(random_regular_tuple(n, m, seed=50000 + trial))
        if realization_error(realize(g, n), g) > COORD_TOL * (1 + g.norm()):
            failures.append(("positive round trip", n, m, trial))
    rejections = (
        (QMatrix.real(np.diag([1.0, -1.0, -1.0])), 2, "n_minus <= 1"),
        (QMatrix.eye(4), 2, "n_plus <= n"),
        (QMatrix.zeros(3, 3), 2, "n_plus + n_minus >= 1"),
    )
    for g, n, want in rejections:
        try:
            realize(g, n)
            failures.append(("missing rejection", want))
        except RealizationError as exc:
            if want not in str(exc):
                failures.append(("wrong rejection message", want, str(exc)))
    _report("criterion 4 (realization round trip)", 60.0, start, failures)


# ---------------------------------------------------------------------------
# 5. Inertia bounds: rank squeezed by the span, at most one negative
#    direction, and exactly one for all-null tuples.

def test_5_inertia_sandwich():
    start = time.perf_counter()
    failures = []
    shapes = ((2, 3), (2, 4), (3, 4), (3, 5))
    for trial in range(10000):
        n, m = shapes[trial % 4]
        kind = trial % 3
        if kind == 0:
            pts = random_null_tuple(n, m, seed=70000 + trial)
        elif kind == 1:
            pts = random_regular_tuple(n, m, seed=70000 + trial)
        else:
            pts = random_parabolic_tuple(n, m, seed=70000 + trial, model=BALL)
        iner = inertia(gram(pts))
        rank = iner.n_plus + iner.n_minus
        span = span_dimension(pts)
        if not (span - 1 <= rank <= span):
            failures.append(("rank outside sandwich", n, m, trial, rank, span))
        if iner.n_minus > 1:
            failures.append(("more than one negative direction", trial))
        if kind == 0 and iner.n_minus != 1:
            failures.append(("all-null tuple without negative direction",
                             trial))
    _report("criterion 5 (inertia sandwich)", 30.0, start, failures)


# ---------------------------------------------------------------------------
# 6. Rotation normalization is a conjugation-orbit invariant and the
#    axis-alignment postconditions hold.

def test_6_rotation_normalization_correctness():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(61)
    for trial in range(10000):
        length = 3 + trial % 3
        v = []
        for _ in range(length):
            q = random_quaternion(rng)
            if rng.random() < 0.3:
                q = quat(q.a0)  # real entry: exercises the deeper strata
            v.append(q)
        u = random_unit_quaternion(rng)
        mu1, w1, tag1 = rotation_normalize_vector(v)
        mu2, w2, tag2 = rotation_normalize_vector(conjugate_vector(u, v))
        if tag1 != tag2 or any(abs(a - b) > 1e-9 for a, b in zip(w1, w2)):
            failures.append(("orbit invariance", trial, tag1, tag2))

        v1 = ImVector3(*rng.normal(size=3))
        v2 = ImVector3(*rng.normal(size=3))
        nu1 = nu(v1)
        img = nu1.conj() * v1.to_quaternion() * nu1
        if abs(abs(nu1) - 1.0) > 1e-10:
            failures.append(("nu not unit", trial))
        if abs(img - I * v1.norm()) > 1e-10 * (1 + v1.norm()):
            failures.append(("nu does not align with the i-axis", trial))
        if v1.is_independent_of(v2, v2.norm()):
            mu_ = mu(v1, v2)
            w1q = mu_.conj() * v1.to_quaternion() * mu_
            w2q = mu_.conj() * v2.to_quaternion() * mu_
            if abs(w1q - I * v1.norm()) > 1e-10 * (1 + v1.norm()):
                failures.append(("mu does not align the first axis", trial))
            if abs(w2q.a3) > 1e-10 * (1 + v2.norm()) or w2q.a2 < -1e-10:
                failures.append(("mu leaves the i-j half plane", trial))
    _report("criterion 6 (rotation normalization)", 60.0, start, failures)


# ---------------------------------------------------------------------------
# 7. Triangle existence over the full parameter grid agrees with
#    realize-then-verify, and degenerate cells have flat span.

def test_7_triangle_grid_existence_matches_realization():
    start = time.perf_counter()
    failures = []
    rs = np.linspace(0.0, 2.0, 20)
    alphas = np.linspace(0.0, math.pi / 2, 10)
    for r1 in rs:
        for r2 in rs:
            for r3 in rs:
                for alpha in alphas:
                    prm = TriangleParams(r1, r2, r3, alpha)
                    exists = triangle_exists(prm)
                    try:
                        pts = realize_triangle(prm)
                        realized = (realization_error(
                            pts, gram_from_params(prm)) <= COORD_TOL)
                    except RealizationError:
                        realized = False
                        pts = None
                    if exists != realized:
                        failures.append(("existence mismatch",
                                         (r1, r2, r3, alpha)))
                    if (abs(triangle_det(prm)) <= 1e-12 and pts is not None
                            and span_dimension(pts) > 2):
                        failures.append(("degenerate cell with full span",
                                         (r1, r2, r3, alpha)))
    _report("criterion 7 (triangle grid)", 120.0, start, failures)


# ---------------------------------------------------------------------------
# 8. The pair invariant t is complete: equal t iff an explicit isometry
#    carries one pair onto the other.

def test_8_pair_invariant_separates_classes():
    start = time.perf_counter()
    failures = []
    for trial in range(1000):
        rng = np.random.default_rng(90000 + trial)
        n = 2 + trial % 2
        p1 = random_positive_point(n, rng)
        p2 = random_positive_point(n, rng)
        if trial % 2 == 0:
            g = random_isometry(n, seed=91000 + trial)
            q1 = g.apply(p1).rescale(random_quaternion(rng) + 2.0)
            q2 = g.apply(p2).rescale(random_quaternion(rng) + 2.0)
        else:
            q1 = random_positive_point(n, rng)
            q2 = random_positive_point(n, rng)
        tp = pair_moduli(p1, p2)
        tq = pair_moduli(q1, q2)
        equal = abs(tp - tq) <= 1e-9 * (1.0 + tp + tq)
        try:
            iso = pair_isometry(p1, p2, q1, q2)
            dev = max(projective_distance(iso.apply(p1), q1),
                      projective_distance(iso.apply(p2), q2))
            found = dev <= COORD_TOL
        except DomainError:
            found = False
        if equal != found:
            failures.append(("invariant vs oracle disagree", trial, tp, tq))
    _report("criterion 8 (pair invariant completeness)", 60.0, start, failures)
