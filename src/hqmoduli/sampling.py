"""Seeded random generators for point tuples and rescalings.

All generators take an integer seed and are deterministic; they return
tuples of HVectors in the requested model.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .gram import Lifts, gram
from .hform import BALL, SIEGEL, HVector, check_dimension, to_model
from .quat import ONE, Quaternion, quat

MAX_RETRIES = 64


def random_quaternion(rng) -> Quaternion:
    return Quaternion(*rng.normal(size=4))


def random_unit_quaternion(rng) -> Quaternion:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def random_null_point(n: int, rng, model: str = BALL) -> HVector:
    """Uniform-ish null point: ball lift (u, 1) with |u| = 1."""
    check_dimension(n)
    v = rng.normal(size=4 * n)
    v /= np.linalg.norm(v)
    entries = [Quaternion(*v[4 * t:4 * t + 4]) for t in range(n)] + [ONE]
    return to_model(HVector.from_entries(entries, BALL), model)


def random_null_tuple(n: int, m: int, seed, model: str = BALL):
    """m distinct null points with pairwise nonvanishing products."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        pts = tuple(random_null_point(n, rng, BALL) for _ in range(m))
        upper = gram(pts).modulus()[np.triu_indices(m, 1)]
        if np.count_nonzero(upper > 1e-4) == upper.size:
            return tuple(to_model(p, model) for p in pts)
    raise UsageError("failed to sample a nondegenerate null tuple")


def random_positive_point(n: int, rng, model: str = BALL) -> HVector:
    """Positive point as a ball lift (u, 1) with |u| > 1 (outside the
    unit sphere, where the form is positive: <p, p> = |u|^2 - 1 >= 0.21
    clears the null bound NULL_EPS (|u|^2 + 1))."""
    check_dimension(n)
    v = rng.normal(size=4 * n)
    r = rng.uniform(1.1, 3.0)
    v *= r / np.linalg.norm(v)
    entries = [Quaternion(*v[4 * t:4 * t + 4]) for t in range(n)] + [ONE]
    return to_model(HVector.from_entries(entries, BALL), model)


def random_regular_tuple(n: int, m: int, seed, model: str = BALL):
    """m distinct positive points whose span is nondegenerate by the
    record's partition, `Lifts.structure` (the generic situation)."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        lifts = Lifts(random_positive_point(n, rng, BALL) for _ in range(m))
        if lifts.structure.kind == "regular":
            return tuple(to_model(p, model) for p in lifts)
    raise UsageError("failed to sample a regular tuple")


def random_parabolic_tuple(n: int, m: int, seed, model: str = SIEGEL,
                           k: int | None = None):
    """Parabolic tuple of m positive points in H^{n,1} with k blocks.

    Built in the Siegel domain inside the orthogonal complement of the
    point at infinity: block i consists of lifts (h, e_i, 0) with e_i
    the i-th standard unit vector of the middle coordinates and varying
    heights h, so within-block products are exactly 1 and cross-block
    products are exactly 0.  Requires k <= n - 1 and m >= k + 1 so that
    some block has at least two elements.
    """
    if n < 2:
        raise UsageError("parabolic tuples need n >= 2")
    if k is None:
        k = min(n - 1, max(1, m - 1))
    if not (1 <= k <= n - 1):
        raise UsageError("need 1 <= k <= n - 1 blocks")
    if m < k + 1:
        raise UsageError("need m >= k + 1 for a degenerate span")
    rng = np.random.default_rng(seed)

    sizes = [1] * k
    sizes[0] += 1
    for _ in range(m - k - 1):
        sizes[int(rng.integers(k))] += 1

    pts = []
    for i, size in enumerate(sizes):
        heights = []
        while len(heights) < size:
            h = random_quaternion(rng)
            if all(abs(h - x) > 1e-3 for x in heights):
                heights.append(h)
        for h in heights:
            entries = [h] + [quat(0)] * (n - 1) + [quat(0)]
            entries[1 + i] = ONE
            pts.append(HVector.from_entries(entries, SIEGEL))
    return tuple(to_model(p, model) for p in pts)


def random_rescaling(m: int, seed):
    """m nonzero quaternions for a diagonal rescaling of a tuple."""
    rng = np.random.default_rng(seed)
    return [random_unit_quaternion(rng) * float(rng.uniform(0.2, 5.0))
            for _ in range(m)]


def random_tuple(kind: str, n: int, m: int, seed, model: str = BALL):
    """Dispatch by kind: 'boundary-tuple', 'positive-regular' or
    'positive-parabolic'."""
    samplers = {"boundary-tuple": random_null_tuple,
                "positive-regular": random_regular_tuple,
                "positive-parabolic": random_parabolic_tuple}
    if kind not in samplers:
        raise UsageError(f"unknown sampling kind {kind!r}")
    return samplers[kind](n, m, seed, model)
