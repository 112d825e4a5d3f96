"""Command-line interface.

Subcommands: boundary-coord, positive-coord, congruent, realize, random,
triangle, triangle-sweep.  Exit codes: 0 success, 1 negative answer
(not congruent / not realizable / triangle does not exist), 2 usage or
input-format error, 3 domain or numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

# the core that every subcommand runs; each handler imports the rest
from .errors import (DomainError, HQError, RealizationError, UsageError)
from .gram import Lifts, realize_with_inertia
from .hform import BALL, SIEGEL, HVector, random_isometry
from .qmatrix import QMatrix
from .quat import Quaternion
from .tol import COORD_TOL, NULL_EPS

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # also json's int digit limit
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_tuple(path, eps: float) -> Lifts:
    """The record of the points in a JSON file, classified at `eps`."""
    data = _load_json(path)
    if isinstance(data, dict) and "points" in data:
        data = data["points"]
    if not isinstance(data, list) or not data:
        raise UsageError("expected a nonempty JSON list of points")
    try:
        points = [HVector.from_json(item) for item in data]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed point entry: {exc}") from exc
    return Lifts(points, eps)


def _parse_gram(data) -> QMatrix:
    try:
        m = data["m"]
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError(f"m must be an integer, got {m!r}")
        entries = data["entries"]
        if m < 1:
            raise UsageError(f"Gram matrix needs m >= 1, got {m}")
        if len(entries) != m or any(len(row) != m for row in entries):
            raise UsageError(f"Gram matrix entries are not {m} x {m}")
        g = QMatrix.zeros(m, m)
        for i in range(m):
            for j in range(m):
                if entries[i][j] is not None:
                    g.set_entry(i, j, Quaternion.from_json(entries[i][j]))
                elif j < i:  # Hermitian completion from the upper triangle
                    g.set_entry(i, j, g.entry(j, i).conj())
        return g
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise UsageError(f"malformed Gram matrix: {exc}") from exc


def _emit(args, payload: dict, summary: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(summary + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_boundary_coord(args) -> int:
    from .boundary import boundary_coordinate
    coord = boundary_coordinate(_parse_tuple(args.tuple, args.eps))
    _emit(args, coord.to_json(),
          f"stratum {coord.stratum}  alpha {coord.alpha:.12g}  "
          f"v {[q.to_json() for q in coord.entries]}")
    return EXIT_OK


def cmd_positive_coord(args) -> int:
    from .positive import positive_coordinate
    coord = positive_coordinate(_parse_tuple(args.tuple, args.eps))
    if coord.kind == "parabolic":
        summary = (f"parabolic  stratum {coord.stratum}  "
                   f"x {[q.to_json() for q in coord.entries]}")
    else:
        summary = (f"regular  blocks {coord.structure.to_json()['blocks']}  "
                   f"{len(coord.entries)} canonical entries")
    _emit(args, coord.to_json(), summary)
    return EXIT_OK


def cmd_congruent(args) -> int:
    from .positive import coordinate_distance, tuple_coordinate
    p, q = (_parse_tuple(f, args.eps) for f in (args.a, args.b))
    if len(p) != len(q):
        raise UsageError(f"tuple sizes differ: {len(p)} vs {len(q)}")
    ca, cb = tuple_coordinate(p), tuple_coordinate(q)
    kind_p, kind_q = ("boundary" if c.kind == "boundary" else "positive"
                      for c in (ca, cb))
    if kind_p != kind_q:
        raise DomainError(f"tuple classes differ: {kind_p} vs {kind_q}")
    dist = coordinate_distance(ca, cb)
    same = dist <= args.tol
    # entries are comparable only when the distance is finite
    diffs = [] if same or math.isinf(dist) else [
        i + 1 for i, (x, y) in enumerate(zip(ca.entries, cb.entries))
        if abs(x - y) > args.tol]
    payload = {"congruent": same, "differing_entries": diffs,
               "a": ca.to_json(), "b": cb.to_json()}
    _emit(args, payload,
          "congruent" if same else f"not congruent (entries {diffs})")
    return EXIT_OK if same else EXIT_NEGATIVE


def cmd_realize(args) -> int:
    g = _parse_gram(_load_json(args.gram))
    try:
        points, iner = realize_with_inertia(g, args.n, args.model)
    except RealizationError as exc:
        _emit(args, {"realizable": False, "violated": exc.violated},
              f"not realizable: violates {exc.violated}")
        return EXIT_NEGATIVE
    payload = {"realizable": True,
               "points": [p.to_json() for p in points],
               "inertia": iner.as_tuple()}
    _emit(args, payload,
          f"realized {len(points)} points in H^({args.n},1), "
          f"model {points[0].model}")
    return EXIT_OK


def cmd_random(args) -> int:
    from .sampling import random_tuple
    if args.n > args.m and args.kind != "isometry":
        sys.stderr.write(
            f"warning: n = {args.n} > m = {args.m}; the configuration "
            "spans a proper subspace and smaller n suffices\n")
    if args.kind == "isometry":
        iso = random_isometry(args.n, args.seed, args.model)
        _emit(args, iso.to_json(), f"random isometry of H^({args.n},1)")
        return EXIT_OK
    points = random_tuple(args.kind, args.n, args.m, args.seed, args.model)
    payload = {"kind": args.kind,
               "points": [p.to_json() for p in points]}
    _emit(args, payload, f"{args.kind} tuple: m={args.m}, n={args.n}, "
          f"seed={args.seed}")
    return EXIT_OK


def _triangle_row(model, *values):
    """(params, det, exists, class, points) of the (r1, r2, r3; alpha)
    triangle; the points realize it in the model when it exists."""
    from .triangle import (TriangleParams, realize_and_classify, triangle_det,
                           triangle_exists)
    params = TriangleParams(*values)
    det = triangle_det(params)
    exists = triangle_exists(params)
    if not exists:
        return params, det, exists, "", ()
    pts, cls = realize_and_classify(params, model)
    return params, det, exists, cls.value, pts


def cmd_triangle(args) -> int:
    params, det, exists, cls, pts = _triangle_row(
        args.model, args.r1, args.r2, args.r3, args.alpha)
    payload = {"params": params.to_json(), "det": det, "exists": exists}
    if exists:
        payload["class"] = cls
        payload["points"] = [p.to_json() for p in pts]
    _emit(args, payload,
          f"det {det:.12g}  " +
          (f"exists  class {cls}" if exists else "does not exist"))
    return EXIT_OK if exists else EXIT_NEGATIVE


def cmd_triangle_sweep(args) -> int:
    rs = np.linspace(0.0, args.r_max, args.r_steps)
    alphas = np.linspace(0.0, math.pi / 2, args.alpha_steps)
    out = sys.stdout
    out.write("r1,r2,r3,alpha,det,exists,class\n")
    for r1 in rs:
        for r2 in rs:
            for r3 in rs:
                for al in alphas:
                    _, det, exists, cls, _ = _triangle_row(
                        args.model, float(r1), float(r2), float(r3), float(al))
                    out.write(f"{r1:.6g},{r2:.6g},{r3:.6g},{al:.6g},"
                              f"{det:.12g},{str(exists).lower()},{cls}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _bounded(convert, low, high=math.inf):
    """argparse type: low <= convert(text) < high, so never NaN or inf."""
    def parse(text):
        if not low <= (x := convert(text)) < high:
            raise argparse.ArgumentTypeError(f"{text} is not in [{low}, {high})")
        return x
    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hqmoduli",
        description="Moduli coordinates and congruence invariants for "
                    "point tuples in quaternionic hyperbolic space.")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON on stdout")
    ap.add_argument("--eps", type=_bounded(float, 0.0, 1.0),
                    default=NULL_EPS,
                    help="null tolerance |<z,z>| <= eps |z|^2, 0 <= eps < 1, "
                         "of boundary-coord, positive-coord and congruent")
    ap.add_argument("--model", choices=[BALL, SIEGEL], default=BALL,
                    help="model for generated/realized points")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--eps", type=_bounded(float, 0.0, 1.0),
                        default=argparse.SUPPRESS)
    common.add_argument("--model", choices=[BALL, SIEGEL],
                        default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[common], **kw))

    p = sub.add_parser("boundary-coord",
                       help="moduli coordinate of a tuple of null points")
    p.add_argument("tuple", help="JSON file with the point tuple ('-' = stdin)")
    p.set_defaults(func=cmd_boundary_coord)

    p = sub.add_parser("positive-coord",
                       help="moduli coordinate of a tuple of positive points")
    p.add_argument("tuple")
    p.set_defaults(func=cmd_positive_coord)

    p = sub.add_parser("congruent",
                       help="test two tuples for congruence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=_bounded(float, 0.0), default=COORD_TOL,
                   help="coordinate comparison tolerance")
    p.set_defaults(func=cmd_congruent)

    p = sub.add_parser("realize",
                       help="realize a Hermitian Gram matrix by points")
    p.add_argument("gram")
    p.add_argument("--n", type=_bounded(int, 1), required=True,
                   help="quaternionic dimension of H^(n,1)")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("random", help="generate a random configuration")
    p.add_argument("kind", choices=["boundary-tuple", "positive-regular",
                                    "positive-parabolic", "isometry"])
    p.add_argument("--n", type=_bounded(int, 1), default=2)
    p.add_argument("--m", type=_bounded(int, 1), default=3)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("triangle",
                       help="existence/classification of an "
                            "(r1,r2,r3;alpha)-triangle")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--r3", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("triangle-sweep",
                       help="CSV sweep of the triangle existence test")
    p.add_argument("--r-max", type=_bounded(float, 0.0), default=2.0)
    p.add_argument("--r-steps", type=_bounded(int, 1), default=20)
    p.add_argument("--alpha-steps", type=_bounded(int, 1), default=10)
    p.set_defaults(func=cmd_triangle_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except HQError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
