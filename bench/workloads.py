"""The benchmark's workloads: seeded inputs, one operation each, and the
oracle that checks every answer.

A workload is built by ``build(name, seed, workdir, src)``, which returns
a ``Workload`` holding the input pool, a ``prepare(item)`` callable that
turns a pool item into an op with its expected answer, and a ``run(op)``
callable.  ``run`` returns True for a correct answer and False for a wrong
one; an exception raised by the library is a failure as well.  The library is
reached only through entry points that the roadmap keeps stable:
``boundary_coordinate``, ``positive_coordinate``, ``gram``, ``inertia``,
``realize_triangle``, ``classify_triangle``, ``triangle_exists`` and
``cli.main`` (run as ``python -m hqmoduli.cli`` would run it), plus the
samplers and ``random_isometry`` while inputs are made.  Coordinates are
compared through their ``to_json()`` form.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from hqmoduli import cli
from hqmoduli.boundary import boundary_coordinate
from hqmoduli.errors import RealizationError
from hqmoduli.gram import gram, inertia
from hqmoduli.hform import BALL, SIEGEL, HVector, random_isometry
from hqmoduli.positive import positive_coordinate
from hqmoduli.sampling import (random_null_tuple, random_parabolic_tuple,
                               random_regular_tuple, random_rescaling)
from hqmoduli.triangle import (TriangleParams, classify_triangle,
                               realize_triangle, triangle_exists)

COORD_TOL = 1e-8    # coordinate agreement, as in the acceptance suite
GRAM_TOL = 1e-8     # Gram round trip of a realization, relative to scale
DET_TOL = 1e-12     # det G <= DET_TOL means the triangle exists
SIGN_TOL = 1e-9     # relative eigenvalue threshold of the class oracle

# One congruence cycle of ten queries: boundary tuples at three sizes (4
# in 10), regular positive tuples at two (5 in 10) and one parabolic tuple.
# The shares put the median op inside the regular (2,4) group rather than
# on the edge between the fast boundary and the slower positive groups,
# where it would jump with small changes of the mix.  Cycles alternate
# between the ball and Siegel models, and in cycle c the queries at
# positions i with i % 5 == c % 5 are negative controls, so 1 in 5 queries
# is non-congruent and every (slot, model, control) combination recurs
# every PERIOD queries.
CONGRUENCE_CYCLE = (("boundary", 2, 4), ("boundary", 3, 5),
                    ("boundary", 3, 8), ("regular", 2, 4),
                    ("regular", 3, 5), ("boundary", 2, 4),
                    ("regular", 2, 4), ("regular", 3, 5),
                    ("regular", 2, 4), ("parabolic", 3, 5))
PERIOD = 100
# Each pool is small enough that its inputs recur several times in a 30-s
# run, so that the latency of an input is the median of its ops, and large
# enough that ten inputs lie beyond the 99th (cli-oneshot: 90th) percentile.
CONGRUENCE_POOL = 10 * PERIOD

# The default `triangle-sweep` grid: (r1, r2, r3, alpha) over these axes.
TRIANGLE_RS = np.linspace(0.0, 2.0, 20)
TRIANGLE_ALPHAS = np.linspace(0.0, math.pi / 2, 10)
GRID_CELLS = len(TRIANGLE_RS) ** 3 * len(TRIANGLE_ALPHAS)
TRIANGLE_POOL = 4000
CLASS_BY_SIGNATURE = {(1, 0): "Parabolic111", (2, 0): "Elliptic",
                      (1, 1): "HyperbolicPlanar", (2, 1): "HyperbolicFull"}

CLI_SUBCOMMANDS = ("boundary-coord", "positive-coord", "congruent",
                   "realize", "triangle")
CLI_PERIOD = 10 * len(CLI_SUBCOMMANDS)    # one period of the call mix
CLI_POOL = 2 * CLI_PERIOD
# Runs the CLI as `python -m hqmoduli.cli` does and, at exit, writes the
# process's peak resident memory (VmHWM) to stderr.  The parent cannot
# measure it: getrusage and wait4 charge a spawned child with the memory
# its parent had when it spawned it.
CLI_LAUNCHER = """\
import atexit, runpy, sys
def report_peak_memory():
    with open("/proc/self/status") as fh:
        sys.stderr.writelines(l for l in fh if l.startswith("VmHWM:"))
atexit.register(report_peak_memory)
runpy.run_module("hqmoduli.cli", run_name="__main__", alter_sys=True)
"""


@dataclass
class Workload:
    name: str
    # the input pool: ops, or compact items that `prepare` turns into ops
    ops: object
    run: Callable[[object], bool]
    fingerprint: str
    # ops that make up one full period of the input mix
    period: int
    # the op for a pool item, with its expected answer; run before the op
    # is timed
    prepare: Callable[[object], object] = field(default=lambda item: item)
    # in-process form of an op, for the traced run (cli-oneshot only, whose
    # ops run in subprocesses)
    run_inprocess: Callable[[object], bool] | None = None
    # peak resident memory of each subprocess op, in MiB
    child_rss_mb: list[float] = field(default_factory=list)
    cleanup: Callable[[], None] = field(default=lambda: None)


def fingerprint(parts: Iterable) -> str:
    """sha256 of the generated inputs: raw bytes, or the canonical JSON
    form of anything else, one part at a time."""
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True,
                              separators=(",", ":")).encode()
        h.update(part)
    return h.hexdigest()


def same_json(a, b, tol: float = COORD_TOL) -> bool:
    """Structural equality of two JSON values, floats within tol."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_json(a[k], b[k], tol) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same_json(x, y, tol) for x, y in zip(a, b)))
    if isinstance(a, bool) or isinstance(a, str) or a is None:
        return a == b
    return (isinstance(b, (int, float)) and not isinstance(b, bool)
            and abs(a - b) <= tol)


def _sub_seeds(rng, k: int) -> list[int]:
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=k)]


def _tuple_json(points) -> list:
    return [p.to_json() for p in points]


# ---------------------------------------------------------------------------
# congruence

@dataclass
class Query:
    label: str
    kind: str
    points: tuple
    image: tuple
    congruent: bool


def _sample(kind: str, n: int, m: int, seed: int, model: str):
    if kind == "boundary":
        return random_null_tuple(n, m, seed, model)
    if kind == "regular":
        return random_regular_tuple(n, m, seed, model)
    return random_parabolic_tuple(n, m, seed, model)


def make_query(index: int, seeds: list[int]) -> Query:
    """Query number `index` of the stream.  A congruent query pairs a tuple
    with its image under an isometry and a per-point rescaling; a negative
    control moves a tuple with two points transposed or, for parabolic
    tuples, an independent tuple of the same shape."""
    kind, n, m = CONGRUENCE_CYCLE[index % len(CONGRUENCE_CYCLE)]
    cycle = index // len(CONGRUENCE_CYCLE)
    model = SIEGEL if cycle % 2 else BALL
    control = index % 5 == cycle % 5
    points = _sample(kind, n, m, seeds[0], model)
    iso = random_isometry(n, seeds[1], model)
    scales = random_rescaling(m, seeds[2])
    moved = points
    if control and kind == "parabolic":
        moved = _sample(kind, n, m, seeds[3], model)
    elif control:
        moved = (points[1], points[0]) + tuple(points[2:])
    image = tuple(iso.apply(p).rescale(x) for p, x in zip(moved, scales))
    label = f"{index}:{kind} n{n} m{m} {model}{' control' if control else ''}"
    return Query(label, kind, points, image, not control)


def congruence_answer(q: Query) -> bool:
    coordinate = (boundary_coordinate if q.kind == "boundary"
                  else positive_coordinate)
    a = coordinate(q.points).to_json()
    b = coordinate(q.image).to_json()
    return same_json(a, b)


def build_congruence(seed: int, size: int = CONGRUENCE_POOL) -> Workload:
    rng = np.random.default_rng(seed)
    ops = [make_query(i, _sub_seeds(rng, 4)) for i in range(size)]
    data = ([q.label, _tuple_json(q.points), _tuple_json(q.image),
             q.congruent] for q in ops)
    return Workload("congruence", ops,
                    lambda q: congruence_answer(q) == q.congruent,
                    fingerprint(data), min(PERIOD, size))


# ---------------------------------------------------------------------------
# triangle grid

@dataclass
class Cell:
    params: tuple[float, float, float, float]
    exists: bool
    cls: str
    # expected Gram matrix, shape (3, 3, 4): quaternion components
    target: np.ndarray

    @property
    def label(self) -> str:
        return "cell r1=%.6g r2=%.6g r3=%.6g alpha=%.6g" % self.params


def triangle_cell(params) -> Cell:
    """A cell with its expected answers: existence from the closed-form
    determinant, class from the signature of the Gram matrix computed
    here with numpy, independently of the library."""
    r1, r2, r3, a = (float(x) for x in params)
    det = (1.0 - (r1 * r1 + r2 * r2 + r3 * r3)
           + 2.0 * r1 * r2 * r3 * math.cos(a))
    z = r1 * complex(math.cos(a), math.sin(a))
    g = np.array([[1.0, r3, r2], [r3, 1.0, z], [r2, z.conjugate(), 1.0]])
    w = np.linalg.eigvalsh(g)
    tol = SIGN_TOL * np.max(np.abs(w))
    signature = (int(np.sum(w > tol)), int(np.sum(w < -tol)))
    target = np.zeros((3, 3, 4))
    target[..., 0] = g.real
    target[..., 1] = g.imag
    return Cell((r1, r2, r3, a), det <= DET_TOL,
                CLASS_BY_SIGNATURE.get(signature, "none"), target)


def grid_cell(index) -> Cell:
    """Cell number `index` of the grid, counted with alpha fastest, then
    r3, r2 and r1."""
    rest, ia = divmod(int(index), len(TRIANGLE_ALPHAS))
    rest, i3 = divmod(rest, len(TRIANGLE_RS))
    i1, i2 = divmod(rest, len(TRIANGLE_RS))
    return triangle_cell((TRIANGLE_RS[i1], TRIANGLE_RS[i2], TRIANGLE_RS[i3],
                          TRIANGLE_ALPHAS[ia]))


def quaternion_array(g) -> np.ndarray:
    """Entries of a quaternion matrix as an array of shape (m, m, 4)."""
    m = g.shape[0]
    return np.array([[g.entry(i, j).to_json() for j in range(m)]
                     for i in range(m)])


def gram_matches(points, target: np.ndarray, tol: float = GRAM_TOL) -> bool:
    """Round trip: the Gram matrix of the points is the target."""
    err = np.max(np.abs(quaternion_array(gram(points)) - target))
    return bool(err <= tol * (1.0 + np.max(np.abs(target))))


def triangle_answer(cell: Cell) -> bool:
    params = TriangleParams(*cell.params)
    if triangle_exists(params) != cell.exists:
        return False
    if not cell.exists:
        try:
            realize_triangle(params)
        except RealizationError:
            return True
        return False
    points = realize_triangle(params)
    return (gram_matches(points, cell.target)
            and classify_triangle(*points).value == cell.cls)


def build_triangle_grid(seed: int, size: int = TRIANGLE_POOL) -> Workload:
    """`size` cells of the grid, drawn and ordered by the seed.  The pool
    holds only the cell numbers; each cell and its expected answers are
    made when its op is about to run, so neither the set-up time nor the
    memory of the pool is the oracle's."""
    order = np.random.default_rng(seed).permutation(GRID_CELLS)[:size]
    return Workload("triangle-grid", order, triangle_answer,
                    fingerprint([TRIANGLE_RS.tobytes(),
                                 TRIANGLE_ALPHAS.tobytes(), order.tobytes()]),
                    min(PERIOD, len(order)), prepare=grid_cell)


# ---------------------------------------------------------------------------
# cli-oneshot

@dataclass
class Call:
    label: str
    argv: list[str]
    exit_code: int
    check: Callable[[dict], bool]


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _write(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _gram_json(g) -> dict:
    return {"m": g.shape[0], "entries": quaternion_array(g).tolist()}


def _realized_gram_matches(out: dict, target) -> bool:
    points = [HVector.from_json(p) for p in out["points"]]
    return gram_matches(points, target)


def make_call(index: int, seeds: list[int], workdir: str) -> Call:
    """Call number `index`: the subcommands rotate, and the inputs come
    from the same generators as the in-process workloads."""
    sub = CLI_SUBCOMMANDS[index % len(CLI_SUBCOMMANDS)]
    turn = index // len(CLI_SUBCOMMANDS)
    base = os.path.join(workdir, f"{index:03d}")
    if sub in ("boundary-coord", "positive-coord"):
        kind, n, m = (("boundary", 3, 5) if sub == "boundary-coord"
                      else (("parabolic", 3, 5) if turn % 5 == 4
                            else ("regular", 2, 4)))
        model = SIEGEL if turn % 2 else BALL
        points = _sample(kind, n, m, seeds[0], model)
        coordinate = (boundary_coordinate if kind == "boundary"
                      else positive_coordinate)
        want = coordinate(points).to_json()
        path = _write(base + ".json", _tuple_json(points))
        return Call(f"{index}:{sub} {kind} n{n} m{m} {model}",
                    ["--json", sub, path], 0,
                    lambda out: same_json(out, want))
    if sub == "congruent":
        q = make_query(index, seeds)
        coordinate = (boundary_coordinate if q.kind == "boundary"
                      else positive_coordinate)
        want_a = coordinate(q.points).to_json()
        want_b = coordinate(q.image).to_json()
        a = _write(base + "a.json", _tuple_json(q.points))
        b = _write(base + "b.json", _tuple_json(q.image))
        return Call(f"{index}:congruent {q.label}",
                    ["--json", "congruent", a, b], 0 if q.congruent else 1,
                    lambda out: (out["congruent"] is q.congruent
                                 and same_json(out["a"], want_a)
                                 and same_json(out["b"], want_b)))
    if sub == "realize":
        # every fifth Gram matrix comes from a tuple in H^{3,1} and has
        # n_plus = 3, which H^{2,1} cannot hold
        n_tuple = 3 if turn % 5 == 4 else 2
        points = random_regular_tuple(n_tuple, 4, seeds[0])
        g = gram(points)
        want_inertia = list(inertia(g).as_tuple())
        target = quaternion_array(g)
        path = _write(base + ".json", _gram_json(g))
        label = f"{index}:realize n{n_tuple} m4 as n2"
        if n_tuple == 3:
            return Call(label, ["--json", "realize", path, "--n", "2"], 1,
                        lambda out: (out["realizable"] is False
                                     and out["violated"] == "n_plus <= n"))
        return Call(label, ["--json", "realize", path, "--n", "2"], 0,
                    lambda out: (out["realizable"] is True
                                 and out["inertia"] == want_inertia
                                 and _realized_gram_matches(out, target)))
    rng = np.random.default_rng(seeds[0])
    row = [*rng.choice(TRIANGLE_RS, size=3), rng.choice(TRIANGLE_ALPHAS)]
    cell = triangle_cell(row)
    r1, r2, r3, alpha = cell.params
    argv = ["--json", "triangle", "--r1", repr(r1), "--r2", repr(r2),
            "--r3", repr(r3), "--alpha", repr(alpha)]
    return Call(f"{index}:triangle {cell.label}", argv,
                0 if cell.exists else 1,
                lambda out: (out["exists"] is cell.exists
                             and out.get("class", "none") ==
                             (cell.cls if cell.exists else "none")))


def cli_answer_subprocess(call: Call, env: dict, rss_mb: list) -> bool:
    """Run one CLI process and check its answer; its peak resident memory
    goes to rss_mb."""
    proc = subprocess.run([sys.executable, "-c", CLI_LAUNCHER, *call.argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    rss_mb.extend(int(line.split()[1]) / 1024.0
                  for line in proc.stderr.splitlines()
                  if line.startswith("VmHWM:"))
    if proc.returncode != call.exit_code:
        return False
    return call.check(json.loads(proc.stdout))


def cli_answer_inprocess(call: Call) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(call.argv))
    return code == call.exit_code and call.check(json.loads(out.getvalue()))


def build_cli_oneshot(seed: int, workdir: str, src: str,
                      size: int = CLI_POOL) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    ops = [make_call(i, _sub_seeds(rng, 4), workdir) for i in range(size)]
    data = [[c.label, c.argv[:2], c.exit_code] for c in ops]
    for c in ops:
        for arg in c.argv:
            if arg.endswith(".json"):
                with open(arg) as fh:
                    data.append(json.load(fh))
    env = cli_env(src)
    rss_mb: list[float] = []

    def cleanup():
        shutil.rmtree(workdir, ignore_errors=True)

    return Workload("cli-oneshot", ops,
                    lambda c: cli_answer_subprocess(c, env, rss_mb),
                    fingerprint(data), min(CLI_PERIOD, size),
                    run_inprocess=cli_answer_inprocess, child_rss_mb=rss_mb,
                    cleanup=cleanup)


# default pool size of each workload
POOL = {"congruence": CONGRUENCE_POOL, "triangle-grid": TRIANGLE_POOL,
        "cli-oneshot": CLI_POOL}


def build(name: str, seed: int, workdir: str, src: str,
          size: int | None = None) -> Workload:
    if name == "congruence":
        return build_congruence(seed, size or CONGRUENCE_POOL)
    if name == "triangle-grid":
        return build_triangle_grid(seed, size or TRIANGLE_POOL)
    if name == "cli-oneshot":
        return build_cli_oneshot(seed, workdir, src, size or CLI_POOL)
    raise ValueError(f"unknown workload {name!r}")
