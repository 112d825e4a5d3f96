"""Canonical moduli coordinates and congruence invariants for tuples of
points in quaternionic hyperbolic/projective space under PU(1,n;H).

The names below load lazily (PEP 562): reading one imports its module,
so `python -m hqmoduli.cli` loads only the modules its subcommand runs."""

import importlib

# exported name -> the module that defines it, from lines "module: names"
_MODULE_OF = {name: line.split(":")[0] for line in """
boundary: Coordinate boundary_coordinate cartan_invariant semi_normalize
errors: DegenerateInputError DomainError HQError InconsistencyError
errors: RealizationError UsageError
gram: Inertia Lifts PartitionStructure check_admissible gram inertia realize
gram: rescale_gram span_dimension
hform: BALL SIEGEL HVector Isometry PairConfiguration PointClass classify herm
hform: pair_configuration pair_isometry pair_moduli random_isometry to_model
positive: INFINITY congruent coordinate_distance
positive: cross_ratio detect_partition one_normalize parabolic_coordinates
positive: positive_coordinate regular_coordinate
qmatrix: QMatrix
quat: ImVector3 Quaternion canonical_sign mu nu quat rotation_normalize_vector
sampling: random_null_tuple random_parabolic_tuple random_regular_tuple
sampling: random_rescaling random_tuple
triangle: TriangleClass TriangleParams classify_triangle normalize_triangle
triangle: realize_triangle triangle_det triangle_exists triangle_params
""".strip().splitlines() for name in line.split()[1:]}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # unknown names raise, so `from hqmoduli import cli` imports the module
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


# `gram` and `quat` each name a submodule and a function in it.  Importing
# the submodule binds the module under that name, hiding `__getattr__`, so
# the functions are bound here, after the core that every subcommand loads.
gram, quat = __getattr__("gram"), __getattr__("quat")
