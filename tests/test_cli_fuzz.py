"""Fuzz of the command line: boundary-coord, positive-coord and congruent
on sampled tuples with damaged points and random --eps / --tol, and
realize on the Gram matrices of sampled tuples with damaged entries and
random --n.

Every run must end in an exit code 0-3 without an exception, and a run
whose points or flags hold a non-finite number must not answer 0 or 1.
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
flags = st.one_of(st.none(), st.floats(0.0, 1e-2),
                  st.sampled_from((-1.0, 0.0, 1.0, 2.0) + NON_FINITE))


def damaged(draw, kind, n, m, model):
    """JSON points of a sampled tuple, in half the cases with one point
    damaged: an entry replaced by a number, a coordinate dropped, the
    point set to zero or moved to the other model, or every entry
    random."""
    seed = draw(st.integers(0, 50))
    points = [p.to_json() for p in random_tuple(kind, n, m, seed, model)]
    if not draw(st.booleans()):
        return points
    point = points[draw(st.integers(0, m - 1))]
    damage = draw(st.sampled_from(
        ("entry", "length", "zero", "model", "random")))
    if damage == "entry":
        entry = draw(st.integers(0, n))
        point["entries"][entry][draw(st.integers(0, 3))] = draw(numbers)
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
    dropped, m changed, or every entry random."""
    kind = draw(st.sampled_from(KINDS))
    n, m = draw(st.integers(2, 3)), draw(st.integers(3, 5))
    g = gram(random_tuple(kind, n, m, draw(st.integers(0, 50)), BALL))
    entries = [[q.to_json() for q in row] for row in g.to_entries()]
    data = {"m": m, "entries": entries}
    if not draw(st.booleans()):
        return data
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    damage = draw(st.sampled_from(("entry", "null", "row", "m", "random")))
    if damage == "entry":
        entries[i][j][draw(st.integers(0, 3))] = draw(numbers)
    elif damage == "null":
        entries[i][j] = None
    elif damage == "row":
        entries.pop(i)
    elif damage == "m":
        data["m"] = draw(st.integers(-1, m + 1))
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
    if isinstance(n, int) and n < 1:
        assert code == 2, (argv, out.getvalue())
