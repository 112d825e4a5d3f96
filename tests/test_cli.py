"""Command-line interface: exit codes, JSON round trips, determinism."""

import json
import math

import pytest

from hqmoduli.cli import main
from hqmoduli.gram import gram
from hqmoduli.hform import BALL, HVector, PointClass, classify
from hqmoduli.positive import positive_coordinate
from hqmoduli.sampling import random_null_tuple, random_regular_tuple
from hqmoduli.hform import random_isometry


def write_tuple(path, points):
    path.write_text(json.dumps([p.to_json() for p in points]))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# boundary-coord

def test_boundary_coord_summary_and_json(tmp_path, capsys):
    pts = random_null_tuple(2, 3, seed=1)
    f = write_tuple(tmp_path / "t.json", pts)
    code, out, _ = run(capsys, "boundary-coord", f)
    assert code == 0
    assert "stratum" in out

    code, out, _ = run(capsys, "--json", "boundary-coord", f)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"stratum", "alpha", "v"}
    assert 0.0 <= data["alpha"] <= math.pi / 2 + 1e-12


def test_boundary_coord_global_flag_after_subcommand(tmp_path, capsys):
    pts = random_null_tuple(2, 3, seed=2)
    f = write_tuple(tmp_path / "t.json", pts)
    code, out, _ = run(capsys, "boundary-coord", f, "--json")
    assert code == 0
    json.loads(out)


def test_boundary_coord_rejects_positive_points(tmp_path, capsys):
    pts = random_regular_tuple(2, 3, seed=3)
    f = write_tuple(tmp_path / "t.json", pts)
    code, _, err = run(capsys, "boundary-coord", f)
    assert code == 3
    assert "error" in err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run(capsys, "boundary-coord", str(f))
    assert code == 2


# ---------------------------------------------------------------------------
# positive-coord and congruent

def test_positive_coord_json(tmp_path, capsys):
    pts = random_regular_tuple(2, 3, seed=4)
    f = write_tuple(tmp_path / "t.json", pts)
    code, out, _ = run(capsys, "--json", "positive-coord", f)
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "regular"
    assert data["structure"]["kind"] == "regular"


def test_positive_coord_matches_library_at_default_flags(tmp_path, capsys):
    """The first product is 5e-9 relative: zero for the library's default
    zero-product threshold, which --eps does not override."""
    pts = [HVector.from_entries(e, BALL)
           for e in [(1, 0, 0), (5e-9, 1, 0), (0.3, 0.4, 0.2)]]
    f = write_tuple(tmp_path / "t.json", pts)
    code, out, _ = run(capsys, "--json", "positive-coord", f)
    assert code == 0
    assert json.loads(out) == positive_coordinate(pts).to_json()


def test_congruent_exit_codes(tmp_path, capsys):
    pts = random_null_tuple(2, 4, seed=5)
    g = random_isometry(2, seed=6)
    moved = tuple(g.apply(p) for p in pts)
    fa = write_tuple(tmp_path / "a.json", pts)
    fb = write_tuple(tmp_path / "b.json", moved)
    code, out, _ = run(capsys, "congruent", fa, fb)
    assert code == 0
    assert "congruent" in out

    other = random_null_tuple(2, 4, seed=7)
    fc = write_tuple(tmp_path / "c.json", other)
    code, out, _ = run(capsys, "congruent", fa, fc)
    assert code == 1
    assert "not congruent" in out


def test_congruent_size_mismatch_is_usage_error(tmp_path, capsys):
    fa = write_tuple(tmp_path / "a.json", random_null_tuple(2, 3, seed=8))
    fb = write_tuple(tmp_path / "b.json", random_null_tuple(2, 4, seed=9))
    code, _, err = run(capsys, "congruent", fa, fb)
    assert code == 2


def test_congruent_mixed_classes_is_domain_error(tmp_path, capsys):
    fa = write_tuple(tmp_path / "a.json", random_null_tuple(2, 3, seed=10))
    fb = write_tuple(tmp_path / "b.json", random_regular_tuple(2, 3, seed=11))
    code, _, err = run(capsys, "congruent", fa, fb)
    assert code == 3


@pytest.mark.parametrize("command", ["boundary-coord", "positive-coord",
                                     "congruent"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_point_entry_is_usage_error(tmp_path, capsys, command,
                                                value):
    # a NaN self-product used to classify as positive, so congruent gave a
    # confident "not congruent" and positive-coord a numpy traceback
    sample = random_null_tuple if command == "boundary-coord" \
        else random_regular_tuple
    data = [p.to_json() for p in sample(2, 3, seed=5)]
    data[1]["entries"][0][2] = value
    f = tmp_path / "t.json"
    f.write_text(json.dumps(data))
    good = write_tuple(tmp_path / "good.json", sample(2, 3, seed=5))
    argv = (command, str(f), good) if command == "congruent" \
        else (command, str(f))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "usage error" in err and "Traceback" not in err
    assert out == ""


def off_cone_tuple(tmp_path):
    """random_null_tuple(2, 4, seed=3) with the first lift's last entry
    multiplied by 1 - 1e-6: null at --eps 1e-4, not at the default."""
    pts = list(random_null_tuple(2, 4, seed=3))
    entries = pts[0].entries()
    entries[-1] = entries[-1] * (1.0 - 1e-6)
    pts[0] = HVector.from_entries(entries, pts[0].model)
    return write_tuple(tmp_path / "t.json", pts)


@pytest.mark.parametrize("command", ["congruent", "boundary-coord"])
def test_eps_is_the_null_tolerance_of_every_point(tmp_path, capsys, command):
    f = off_cone_tuple(tmp_path)
    files = (f, f) if command == "congruent" else (f,)
    code, _, err = run(capsys, "--eps", "1e-4", command, *files)
    assert code == 0, err
    code, _, err = run(capsys, command, *files)
    assert code == 3
    assert "must consist of" in err


def test_eps_after_subcommand_reaches_positive_coord(tmp_path, capsys):
    f = off_cone_tuple(tmp_path)
    code, _, err = run(capsys, "positive-coord", f, "--eps", "1e-4")
    assert code == 3
    assert "positive points" in err


@pytest.mark.parametrize("argv", [
    ("--eps", "nan", "congruent", "{r}", "{r}"),
    ("--eps", "inf", "congruent", "{r}", "{r}"),
    ("--eps", "1", "congruent", "{r}", "{r}"),
    ("--eps", "-1e-9", "positive-coord", "{r}"),
    ("boundary-coord", "{r}", "--eps", "nan"),
    ("congruent", "--tol", "nan", "{r}", "{r}"),
    ("congruent", "--tol", "-1", "{r}", "{r}"),
    ("congruent", "--tol", "inf", "{r}", "{r}"),
    ("triangle-sweep", "--r-steps", "-1"),
    ("triangle-sweep", "--r-steps", "0"),
    ("triangle-sweep", "--alpha-steps", "0"),
    ("triangle-sweep", "--r-max", "nan"),
    ("triangle-sweep", "--r-max", "-1"),
    ("random", "boundary-tuple", "--n", "0", "--m", "3"),
    ("random", "positive-regular", "--n", "0", "--m", "3"),
    ("random", "isometry", "--n", "-2"),
    ("realize", "{g}", "--n", "0"),
    ("realize", "{g}", "--n", "-1"),
])
def test_out_of_range_numbers_are_usage_errors(tmp_path, capsys, argv):
    r = write_tuple(tmp_path / "r.json", random_regular_tuple(2, 3, seed=4))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"m": 1, "entries": [[[1, 0, 0, 0]]]}))
    code, out, err = run(capsys, *(a.format(r=r, g=g) for a in argv))
    assert code == 2
    assert out == "" and "Traceback" not in err


def test_boundary_values_of_numeric_flags_are_accepted(tmp_path, capsys):
    r = write_tuple(tmp_path / "r.json", random_regular_tuple(2, 3, seed=4))
    assert run(capsys, "--eps", "0", "congruent", "--tol", "0", r, r)[0] == 0
    code, out, _ = run(capsys, "triangle-sweep", "--r-max", "0",
                       "--r-steps", "1", "--alpha-steps", "1")
    assert code == 0 and len(out.strip().splitlines()) == 2


# ---------------------------------------------------------------------------
# realize

def test_realize_inadmissible_names_condition(tmp_path, capsys):
    data = {"m": 3, "entries": [
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0]]]}
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, out, _ = run(capsys, "--json", "realize", str(f), "--n", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"realizable": False, "violated": "n_minus <= 1"}


def test_realize_upper_triangle_completion(tmp_path, capsys):
    one = [1, 0, 0, 0]
    data = {"m": 3, "entries": [
        [one, one, one],
        [None, one, one],
        [None, None, one]]}
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, out, _ = run(capsys, "--json", "realize", str(f), "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["realizable"] is True
    assert payload["inertia"] == [1, 0, 2]
    pts = [HVector.from_json(p) for p in payload["points"]]
    assert all(classify(p) == PointClass.POSITIVE for p in pts)
    gm = gram(pts)
    assert all(abs(gm.entry(a, b).a0 - 1.0) <= 1e-8
               for a in range(3) for b in range(3))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_realize_non_finite_gram_entry_is_usage_error(tmp_path, capsys, value):
    one = [1, 0, 0, 0]
    data = {"m": 3, "entries": [
        [one, [0.5, value, 0, 0], one],
        [None, one, one],
        [None, None, one]]}
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "realize", str(f), "--n", "2")
    assert code == 2
    assert "usage error" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("data", [
    {"m": 1, "entries": [[[1, 0, 0, 0]], [[1, 0, 0, 0]]]},
    {"m": 2, "entries": [[[1, 0, 0, 0]], [[1, 0, 0, 0]]]},
    {"m": 2, "entries": [[[1, 0, 0, 0], None], [None, [1, 0, 0, 0]], []]},
], ids=["extra-row", "short-rows", "extra-empty-row"])
def test_realize_gram_of_wrong_shape_is_usage_error(tmp_path, capsys, data):
    # rows or entries beyond m used to be ignored, so a malformed file
    # got an answer about a matrix it does not hold
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "realize", str(f), "--n", "2")
    assert code == 2
    assert "usage error" in err and out == ""


# ---------------------------------------------------------------------------
# random

def test_random_boundary_kind_validates(tmp_path, capsys):
    code, out, _ = run(capsys, "--json", "random", "boundary-tuple",
                       "--n", "2", "--m", "4", "--seed", "3")
    assert code == 0
    pts = [HVector.from_json(p) for p in json.loads(out)["points"]]
    assert all(classify(p) == PointClass.NULL for p in pts)


def test_random_same_seed_identical_output(capsys):
    args = ("--json", "random", "positive-regular",
            "--n", "2", "--m", "3", "--seed", "17")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_random_isometry_kind(capsys):
    code, out, _ = run(capsys, "--json", "random", "isometry", "--n", "2",
                       "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert len(data["matrix"]) == 3


# ---------------------------------------------------------------------------
# triangle

def test_triangle_exists_exit_zero(capsys):
    code, out, _ = run(capsys, "--json", "triangle",
                       "--r1", "1", "--r2", "1", "--r3", "1", "--alpha", "0")
    assert code == 0
    data = json.loads(out)
    assert data["exists"] is True
    assert abs(data["det"]) <= 1e-12
    assert data["class"] == "Parabolic111"


def test_triangle_nonexistent_exit_one(capsys):
    code, out, _ = run(capsys, "triangle",
                       "--r1", "0.5", "--r2", "0.5", "--r3", "0.5",
                       "--alpha", "1.0")
    assert code == 1
    assert "does not exist" in out


def test_triangle_alpha_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "triangle",
                       "--r1", "1", "--r2", "1", "--r3", "1", "--alpha", "2.0")
    assert code == 2


@pytest.mark.parametrize("flag", ["--r1", "--r3", "--alpha"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_triangle_non_finite_parameter_is_usage_error(capsys, flag, value):
    argv = {"--r1": "1", "--r2": "1", "--r3": "1", "--alpha": "0"}
    argv[flag] = value
    code, out, err = run(capsys, "triangle",
                         *(x for item in argv.items() for x in item))
    assert code == 2
    assert "does not exist" not in out
    assert "usage error" in err


def test_triangle_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "triangle-sweep",
                       "--r-max", "1.5", "--r-steps", "3", "--alpha-steps", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r1,r2,r3,alpha,det,exists,class"
    assert len(lines) == 1 + 3 * 3 * 3 * 2
    for line in lines[1:]:
        assert line.count(",") == 6


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
