"""Fuzz of the command line: boundary-coord, positive-coord and congruent
on sampled tuples with damaged points and random --eps / --tol, realize
on the Gram matrices of sampled tuples with damaged entries and random
--n, random over its kinds, --n, --m and --seed, and triangle over its
parameters up to the largest doubles.

Every run must end in an exit code 0-3 without an exception, a run
whose points or flags hold a non-finite number must not answer 0 or 1,
and a run whose points or Gram matrix hold a string or a bool where a
number belongs, or a Gram matrix whose m is not an int, must exit 2.
The examples are derandomized, so the test is the same on every run.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmoduli.cli import main
from hqmoduli.gram import gram
from hqmoduli.hform import BALL, SIEGEL
from hqmoduli.sampling import random_tuple

KINDS = ("boundary-tuple", "positive-regular", "positive-parabolic")
NON_FINITE = (math.nan, math.inf, -math.inf)

numbers = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-6, 1e-6),
                    st.sampled_from((0.0, 1.0) + NON_FINITE))
wrong_types = st.sampled_from(("1", "0.5", "x", True, False))
flags = st.one_of(st.none(), st.floats(0.0, 1e-2),
                  st.sampled_from((-1.0, 0.0, 1.0, 2.0) + NON_FINITE))


def damaged(draw, kind, n, m, model):
    """JSON points of a sampled tuple, in half the cases with one point
    damaged: an entry replaced by a number, a coordinate dropped, the
    point set to zero or moved to the other model, every entry random, or
    a component replaced by a string or a bool."""
    seed = draw(st.integers(0, 50))
    points = [p.to_json() for p in random_tuple(kind, n, m, seed, model)]
    if not draw(st.booleans()):
        return points
    point = points[draw(st.integers(0, m - 1))]
    damage = draw(st.sampled_from(
        ("entry", "length", "zero", "model", "random", "type")))
    if damage in ("entry", "type"):
        entry = draw(st.integers(0, n))
        point["entries"][entry][draw(st.integers(0, 3))] = draw(
            numbers if damage == "entry" else wrong_types)
    elif damage == "length":
        point["entries"].pop()
    elif damage == "zero":
        point["entries"] = [[0.0] * 4 for _ in point["entries"]]
    elif damage == "model":
        point["model"] = SIEGEL if point["model"] == BALL else BALL
    else:
        point["entries"] = [[draw(numbers) for _ in range(4)]
                            for _ in point["entries"]]
    return points


@st.composite
def tuple_pair(draw):
    """Two tuples of one kind and shape, each possibly damaged."""
    kind = draw(st.sampled_from(KINDS))
    shape = (draw(st.integers(2, 3)), draw(st.integers(3, 5)),
             draw(st.sampled_from((BALL, SIEGEL))))
    return damaged(draw, kind, *shape), damaged(draw, kind, *shape)


@st.composite
def gram_file(draw):
    """The JSON Gram matrix of a sampled tuple, in half the cases damaged:
    a component replaced by a number, an entry set to null, a row
    dropped, m changed, every entry random, the matrix empty, or a
    component replaced by a string or a bool, or m by a float or a
    bool."""
    kind = draw(st.sampled_from(KINDS))
    n, m = draw(st.integers(2, 3)), draw(st.integers(3, 5))
    g = gram(random_tuple(kind, n, m, draw(st.integers(0, 50)), BALL))
    entries = [[q.to_json() for q in row] for row in g.to_entries()]
    data = {"m": m, "entries": entries}
    if not draw(st.booleans()):
        return data
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    damage = draw(st.sampled_from(("entry", "null", "row", "m", "random",
                                   "empty", "type")))
    if damage == "entry":
        entries[i][j][draw(st.integers(0, 3))] = draw(numbers)
    elif damage == "null":
        entries[i][j] = None
    elif damage == "row":
        entries.pop(i)
    elif damage == "m":
        data["m"] = draw(st.integers(-1, m + 1))
    elif damage == "empty":
        data.update(m=0, entries=[])
    elif damage == "type" and draw(st.booleans()):
        data["m"] = draw(st.sampled_from((float(m), m + 0.5, True)))
    elif damage == "type":
        entries[i][j][draw(st.integers(0, 3))] = draw(wrong_types)
    else:
        data["entries"] = [[[draw(numbers) for _ in range(4)]
                            for _ in range(m)] for _ in range(m)]
    return data


def non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(non_finite(v) for v in value)
    return False


def wrong_type(value) -> bool:
    """A string or a bool inside nested lists, where numbers belong."""
    if isinstance(value, list):
        return any(wrong_type(v) for v in value)
    return isinstance(value, (str, bool))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(("boundary-coord", "positive-coord",
                                "congruent")),
       pair=tuple_pair(), eps=flags, tol=flags)
def test_cli_exit_codes_under_fuzz(workdir, command, pair, eps, tol):
    a, b = pair
    files = []
    for name, points in (("a.json", a), ("b.json", b)):
        path = workdir / name
        path.write_text(json.dumps(points))
        files.append(str(path))
    argv = [command] + files[:2 if command == "congruent" else 1]
    if eps is not None:
        argv += ["--eps", repr(eps)]
    if tol is not None and command == "congruent":
        argv += ["--tol", repr(tol)]
    used = (a, b) if command == "congruent" else (a,)
    flags = [x for x in (eps, tol if command == "congruent" else None)
             if x is not None]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if non_finite(list(used)) or non_finite(flags):
        assert code in (2, 3), (argv, out.getvalue())
    if wrong_type([p["entries"] for points in used for p in points]):
        assert code == 2, (argv, out.getvalue())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=gram_file(),
       n=st.one_of(st.integers(-2, 5), st.sampled_from(("nan", "inf", "1.5"))),
       model=st.sampled_from((BALL, SIEGEL)))
def test_realize_exit_codes_under_fuzz(workdir, data, n, model):
    path = workdir / "g.json"
    path.write_text(json.dumps(data))
    argv = ["realize", str(path), "--n", str(n), "--model", model]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if non_finite(data) or n in ("nan", "inf"):
        assert code in (2, 3), (argv, out.getvalue())
    if ((isinstance(n, int) and n < 1) or not data["entries"]
            or type(data["m"]) is not int or wrong_type(data["entries"])):
        assert code == 2, (argv, out.getvalue())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS + ("isometry",)), n=st.integers(-1, 4),
       m=st.integers(-1, 6),
       seed=st.one_of(st.integers(-3, 50), st.integers(2 ** 62, 2 ** 70)))
def test_random_exit_codes_under_fuzz(kind, n, m, seed):
    argv = ["random", kind, "--n", str(n), "--m", str(m), "--seed", str(seed)]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if min(n, m) < 1 or seed < 0:
        assert code == 2 and out.getvalue() == "", argv


def no_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def triangle_parameters(draw):
    """(r1, r2, r3, alpha) with r_t up to 1e308, in half the cases with
    one of them replaced by a negative, large or non-finite number."""
    values = [draw(st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e308)))
              for _ in range(3)] + [draw(st.floats(0.0, math.pi))]
    if draw(st.booleans()):
        values[draw(st.integers(0, 3))] = draw(st.one_of(
            st.floats(-1e308, -1e-300), st.floats(3.0, 1e308),
            st.sampled_from(NON_FINITE)))
    return values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=triangle_parameters())
def test_triangle_exit_codes_under_fuzz(values):
    argv = ["--json", "triangle"] + [
        f"--{k}={v!r}" for k, v in zip(("r1", "r2", "r3", "alpha"), values)]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    *r, alpha = values
    if non_finite(values) or min(r) < 0.0 or not 0.0 <= alpha <= math.pi:
        assert code == 2, (argv, out.getvalue())
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=no_constant)
