"""Command-line interface: exit codes, JSON round trips, determinism."""

import io
import json
import math

import pytest

from hqmoduli.cli import main
from hqmoduli.gram import gram, inertia
from hqmoduli.hform import BALL, SIEGEL, HVector, PointClass, classify
from hqmoduli.positive import positive_coordinate
from hqmoduli.qmatrix import QMatrix
from hqmoduli.sampling import random_null_tuple, random_regular_tuple
from hqmoduli.hform import random_isometry
from hqmoduli.triangle import (TriangleParams, classify_triangle,
                               gram_from_params, realize_triangle,
                               triangle_exists)


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


def test_tuple_from_stdin_and_points_object_are_read(tmp_path, capsys,
                                                     monkeypatch):
    # "-" reads the tuple from stdin, and {"points": [...]} is the list
    pts = random_null_tuple(2, 3, seed=1)
    code, want, _ = run(capsys, "boundary-coord",
                        write_tuple(tmp_path / "t.json", pts))
    assert code == 0
    listed = [p.to_json() for p in pts]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(listed)))
    assert run(capsys, "boundary-coord", "-")[:2] == (0, want)
    f = tmp_path / "points.json"
    f.write_text(json.dumps({"points": listed}))
    assert run(capsys, "boundary-coord", str(f))[:2] == (0, want)


@pytest.mark.parametrize("data, message", [
    ({"entries": []}, "expected a nonempty JSON list of points"),
    (5, "expected a nonempty JSON list of points"),
    ([{}], "malformed point entry"),
    ([5], "malformed point entry"),
], ids=["object-without-points", "number", "point-without-entries",
        "point-not-an-object"])
def test_malformed_tuple_file_is_usage_error(tmp_path, capsys, data, message):
    f = tmp_path / "t.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "positive-coord", str(f))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("at, value", [
    ((0, 0), "3"), ((2, 0), True), ((0, 0), 3 * 10 ** 400),
], ids=["string", "bool", "int-beyond-floats"])
def test_point_component_that_is_not_a_float_is_usage_error(tmp_path, capsys,
                                                            at, value):
    # "3" and true were read as the numbers 3 and 1, which answered, and an
    # int too large for a float was a traceback
    data = [{"model": BALL, "entries": [[3, 0, 0, 0], [0, 0, 0, 0],
                                        [1, 0, 0, 0]]},
            {"model": BALL, "entries": [[0, 0, 0, 0], [3, 0, 0, 0],
                                        [1, 0, 0, 0]]}]
    data[0]["entries"][at[0]][at[1]] = value
    f = tmp_path / "t.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "positive-coord", str(f))
    assert code == 2 and out == ""
    assert "usage error" in err and "Traceback" not in err


def test_json_int_beyond_the_digit_limit_is_usage_error(tmp_path, capsys):
    # the JSON reader refuses ints of more than 4300 digits with a
    # ValueError that is not a JSONDecodeError
    f = tmp_path / "t.json"
    f.write_text('[{"entries": [[' + "1" * 5000 + ', 0, 0, 0]]}]')
    code, out, err = run(capsys, "positive-coord", str(f))
    assert code == 2 and out == ""
    assert "cannot read JSON" in err


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


@pytest.mark.parametrize("command, sample, m", [
    ("boundary-coord", random_null_tuple, 2),
    ("positive-coord", random_regular_tuple, 1),
    ("congruent", random_null_tuple, 2),
    ("congruent", random_regular_tuple, 1),
], ids=["boundary-2", "positive-1", "congruent-null-2",
        "congruent-positive-1"])
def test_too_few_points_are_a_usage_error(tmp_path, capsys, command, sample,
                                          m):
    # a boundary coordinate needs 3 null points, a positive one 2 points
    f = write_tuple(tmp_path / "t.json", sample(2, m, seed=4))
    argv = (command, f, f) if command == "congruent" else (command, f)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "need at least" in err and "Traceback" not in err


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


@pytest.mark.parametrize("model", [BALL, SIEGEL])
@pytest.mark.parametrize("command", ["boundary-coord", "positive-coord"])
def test_one_entry_points_are_usage_error(tmp_path, capsys, command, model):
    # points of H^{0,1} had a class that depends on the model, and the
    # coordinate then failed with exit 3
    data = [{"model": model, "entries": [[x, 0, 0, 0]]} for x in (1, 2, 3)]
    f = tmp_path / "t.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(f))
    assert code == 2 and out == ""
    assert "n >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("mix", ["dimensions", "models"])
@pytest.mark.parametrize("command", ["boundary-coord", "positive-coord",
                                     "congruent"])
def test_tuple_that_mixes_models_or_dimensions_is_usage_error(
        tmp_path, capsys, command, mix):
    # the last point of the tuple is of another n or of the other model
    sample = random_null_tuple if command == "boundary-coord" \
        else random_regular_tuple
    other = (sample(3, 4, seed=6) if mix == "dimensions"
             else sample(2, 4, seed=6, model=SIEGEL))
    f = write_tuple(tmp_path / "mixed.json", [*sample(2, 3, seed=6), other[3]])
    good = write_tuple(tmp_path / "good.json", sample(2, 4, seed=6))
    argv = (command, f, good) if command == "congruent" else (command, f)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "usage error: tuple mixes models or dimensions\n"


@pytest.mark.parametrize("command", ["boundary-coord", "positive-coord",
                                     "congruent"])
def test_lifts_whose_products_overflow_are_a_domain_error(tmp_path, capsys,
                                                          command):
    # squares of entries near 1e160 overflow in the norms and the Gram
    # matrix: one error, no numpy warning (the suite's warnings are errors)
    sample = random_null_tuple if command == "boundary-coord" \
        else random_regular_tuple
    big = [p.scaled(1e160) for p in sample(2, 4, seed=1)]
    f = write_tuple(tmp_path / "big.json", big)
    argv = (command, f, f) if command == "congruent" else (command, f)
    code, out, err = run(capsys, "--json", *argv)
    assert code == 3 and out == ""
    assert err == "error: the products of the lifts overflow\n"


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
    ("random", "boundary-tuple", "--seed", "-1"),
    ("random", "boundary-tuple", "--m", "0"),
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


@pytest.mark.parametrize("entries, where", [
    ([[None, [1, 0, 0, 0]], [None, None]], "(1, 1)"),
    ([[[1, 0, 0, 0], None], [[0.5, 0, 0, 0], [1, 0, 0, 0]]], "(1, 2)"),
], ids=["null-diagonal", "lower-triangle"])
def test_realize_null_on_or_above_the_diagonal_is_usage_error(
        tmp_path, capsys, entries, where):
    # only the lower part is completed from the upper triangle; a null
    # diagonal entry used to be read as 0 and realized with exit 0
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"m": 2, "entries": entries}))
    code, out, err = run(capsys, "realize", str(f), "--n", "2")
    assert code == 2 and out == ""
    assert f"Gram entry {where} is null" in err


def counting_decompositions(monkeypatch) -> list:
    """The names of the QMatrix spectral decompositions made from now on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(self, name=name, fn=getattr(QMatrix, name)):
            calls.append(name)
            return fn(self)
        monkeypatch.setattr(QMatrix, name, counted)
    return calls


def test_realize_decomposes_its_gram_matrix_once(tmp_path, capsys,
                                                 monkeypatch):
    # the "inertia" field is the signature that the realization read off
    # its one eigendecomposition
    g = gram(random_regular_tuple(2, 4, seed=5))
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"m": 4, "entries": [
        [g.entry(i, j).to_json() for j in range(4)] for i in range(4)]}))
    calls = counting_decompositions(monkeypatch)
    code, out, _ = run(capsys, "--json", "realize", str(f), "--n", "2")
    assert code == 0 and calls == ["eigh"]
    monkeypatch.undo()
    assert json.loads(out)["inertia"] == list(inertia(g).as_tuple())


def near_largest_float(big):
    return {"m": 2, "entries": [[[big, 0, 0, 0], [big, 0, big, 0]],
                                [None, [-big, 0, 0, 0]]]}


def test_realize_near_the_largest_float_with_a_finite_spectrum(tmp_path,
                                                               capsys):
    # entries of 1e308 whose adjoint eigenvalues, +-1.73e308, are finite:
    # averaging each pair of them must not overflow (the suite's warnings
    # are errors)
    f = tmp_path / "g.json"
    f.write_text(json.dumps(near_largest_float(1e308)))
    code, out, err = run(capsys, "--json", "realize", str(f), "--n", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["inertia"] == [1, 1, 0]


def test_realize_overflowing_spectrum_is_a_domain_error(tmp_path, capsys):
    # at 1.5e308 the eigenvalues themselves overflow: no signature can be
    # read off the spectrum
    f = tmp_path / "g.json"
    f.write_text(json.dumps(near_largest_float(1.5e308)))
    code, out, err = run(capsys, "--json", "realize", str(f), "--n", "2")
    assert code == 3 and out == ""
    assert "spectrum of the matrix is not finite" in err


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
    {"m": 0, "entries": []},
], ids=["extra-row", "short-rows", "extra-empty-row", "empty"])
def test_realize_gram_of_wrong_shape_is_usage_error(tmp_path, capsys, data):
    # rows or entries beyond m used to be ignored, so a malformed file
    # got an answer about a matrix it does not hold
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "realize", str(f), "--n", "2")
    assert code == 2
    assert "usage error" in err and out == ""


@pytest.mark.parametrize("data", [
    {"m": "x", "entries": []},
    {"entries": [[[1, 0, 0, 0]]]},
    {"m": 1, "entries": [[[1, 0]]]},
], ids=["m-not-a-number", "no-m", "short-quaternion"])
def test_realize_malformed_gram_is_usage_error(tmp_path, capsys, data):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "realize", str(f), "--n", "2")
    assert code == 2 and out == ""
    assert "malformed Gram matrix" in err and "Traceback" not in err


@pytest.mark.parametrize("m", [2.9, True, "2"],
                         ids=["float", "bool", "string"])
def test_realize_gram_with_m_not_an_int_is_usage_error(tmp_path, capsys, m):
    # m was read as int(m): 2.9 and "2" as 2, true as 1, each answered
    size = int(m)
    eye = [[[float(i == j), 0, 0, 0] for j in range(size)]
           for i in range(size)]
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"m": m, "entries": eye}))
    code, out, err = run(capsys, "realize", str(f), "--n", "2")
    assert code == 2 and out == ""
    assert "malformed Gram matrix" in err and "Traceback" not in err


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


@pytest.mark.parametrize("r1, r2, r3, alpha", [
    ("0", "0", "1", "0"), ("0.5", "0.5", "1", "0"), ("1", "0", "0", "0.7")])
def test_triangle_with_coincident_realized_vertices_is_classified(
        capsys, r1, r2, r3, alpha):
    """Two equal rows of G put two realized vertices together; the
    triangle exists and its class is the signature of G."""
    code, out, err = run(capsys, "--json", "triangle", "--r1", r1,
                         "--r2", r2, "--r3", r3, "--alpha", alpha)
    assert code == 0, err
    data = json.loads(out)
    assert data["exists"] is True
    assert data["class"] == "Elliptic"


@pytest.mark.parametrize("params", [("1", "1", "1", "0"), ("0", "0", "1", "0"),
                                    ("0.5", "0.7", "1.3", "0.4")])
def test_triangle_decomposes_its_gram_matrix_once(capsys, monkeypatch,
                                                  params):
    # the class is the signature that the realization read off its one
    # eigendecomposition of G
    calls = counting_decompositions(monkeypatch)
    code, out, err = run(capsys, "--json", "triangle", *(
        x for kv in zip(("--r1", "--r2", "--r3", "--alpha"), params)
        for x in kv))
    assert code == 0, err
    assert calls == ["eigh"]
    assert json.loads(out)["class"]


def test_triangle_sweep_through_r_equal_one(capsys):
    code, out, err = run(capsys, "triangle-sweep",
                         "--r-max", "1", "--r-steps", "2")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2 ** 3 * 10
    assert ["0", "0", "1", "0", "0", "true", "Elliptic"] in rows


def test_triangle_nonexistent_exit_one(capsys):
    code, out, _ = run(capsys, "triangle",
                       "--r1", "0.5", "--r2", "0.5", "--r3", "0.5",
                       "--alpha", "1.0")
    assert code == 1
    assert "does not exist" in out


def test_triangle_realizes_its_points_in_the_model(capsys):
    params = TriangleParams(1.2, 1.3, 1.4, 2.5)
    code, out, err = run(capsys, "--model", "siegel", "--json", "triangle",
                         "--r1", "1.2", "--r2", "1.3", "--r3", "1.4",
                         "--alpha", "2.5")
    assert code == 0, err
    data = json.loads(out)
    pts = [HVector.from_json(p) for p in data["points"]]
    assert {p.model for p in pts} == {SIEGEL}
    target = gram_from_params(params)
    assert (gram(pts) - target).norm() <= 1e-12 * target.norm()
    assert data["class"] == classify_triangle(*realize_triangle(params)).value


def test_triangle_alpha_out_of_range_is_usage_error(capsys):
    # the one alpha domain is TriangleParams' [0, pi]
    for alpha in ("3.5", "-0.1"):
        code, _, err = run(capsys, "triangle", "--r1", "1", "--r2", "1",
                           "--r3", "1", "--alpha", alpha)
        assert code == 2
        assert "alpha must lie in [0, pi]" in err


def test_triangle_takes_alpha_beyond_half_pi(capsys):
    # alpha in (pi/2, pi], as triangle_params reads it off a realized
    # triangle, gets the library's answer
    params = TriangleParams(0.9, 0.8, 0.7, 2.5)
    code, out, err = run(capsys, "--json", "triangle", "--r1", "0.9",
                         "--r2", "0.8", "--r3", "0.7", "--alpha", "2.5")
    data = json.loads(out)
    exists = triangle_exists(params)
    assert code == (0 if exists else 1), err
    assert data["exists"] is exists
    assert data.get("class") == (
        classify_triangle(*realize_triangle(params)).value if exists else None)


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


@pytest.mark.parametrize("r", ["1e200", "1e103"])
def test_triangle_det_overflow_is_domain_error(capsys, r):
    # det G once overflowed to NaN (r = 1e200), which answered "does not
    # exist" with "det": NaN, no JSON, or to inf (r = 1e103)
    code, out, err = run(capsys, "--json", "triangle",
                         "--r1", r, "--r2", r, "--r3", r)
    assert code == 3
    assert out == ""
    assert "det G overflows" in err


def test_triangle_with_unrealizable_unit_diagonal_names_no_class(capsys):
    # at r ~ 1e16 the eigenvalues zeroed at INERTIA_EPS carry the unit
    # diagonal: the signature of G reads (1, 1, 1) where Jacobi's rule on
    # the leading minors 1, -5.25 and det < 0 gives (2, 1, 0), and the
    # realized vertices are not positive, so no class is answered
    code, out, err = run(capsys, "--json", "triangle", "--r1", "4e16",
                         "--r2", "4e16", "--r3", "2.5", "--alpha", "1.77")
    assert code == 3 and out == ""
    assert "positive points" in err


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
