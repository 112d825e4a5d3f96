"""Canonical moduli coordinates and congruence invariants for tuples of
points in quaternionic hyperbolic/projective space under PU(1,n;H)."""

from .boundary import (Coordinate, boundary_coordinate, cartan_invariant,
                       semi_normalize)
from .errors import (DegenerateInputError, DomainError, HQError,
                     InconsistencyError, RealizationError, UsageError)
from .gram import (Inertia, Lifts, check_admissible, gram, inertia,
                   permute_gram, realize, rescale_gram, span_dimension)
from .hform import (BALL, SIEGEL, HVector, Isometry, PairConfiguration,
                    PointClass, cayley, classify, herm, pair_configuration,
                    pair_isometry, pair_moduli, random_isometry, to_model)
from .positive import (INFINITY, PartitionStructure, block_normalize,
                       congruent, coordinate_distance, cross_ratio,
                       detect_partition, one_normalize, parabolic_coordinates,
                       positive_coordinate, regular_coordinate)
from .qmatrix import QMatrix
from .quat import (ImVector3, Quaternion, canonical_sign, mu, nu, quat,
                   rotation_normalize_vector)
from .sampling import (random_null_tuple, random_parabolic_tuple,
                       random_regular_tuple, random_rescaling, random_tuple)
from .triangle import (TriangleClass, TriangleParams, classify_triangle,
                       normalize_triangle, realize_triangle, side_data,
                       triangle_angular_invariant, triangle_det,
                       triangle_exists, triangle_params)

__version__ = "0.1.0"
