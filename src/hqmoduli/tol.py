"""Every threshold of hqmoduli, one per kind of decision.  Each is relative
to the scale named beside it, so that rescaling the lifts, isometries and
the choice of model leave the decision unchanged.  Constants only."""

NULL_EPS = 1e-9        # of |z|^2: <z, z> = 0, a null lift
INERTIA_EPS = 1e-9     # of the largest |eigenvalue| or singular value: a zero one
PRODUCT_EPS = 1e-12    # of the product of the lift norms: a vanishing product
ZERO_EPS = 1e-8        # of the largest |g_ab|: a vanishing Gram entry
UNIT_EPS = 1e-6        # of 1: a normalized product or parameter equal to 1
CLASSIFY_EPS = 1e-9    # of the entries' modulus: a zero imaginary part
DEPENDENCE_EPS = 1e-10  # of |v| |w|: dependent imaginary parts v, w
SEMI_TOL = 1e-8        # of 1: a semi-normalized entry equal to 0 or 1
ORTHOGONAL_TOL = 1e-7  # of the lift norm: a lift orthogonal to the null direction
STRUCTURE_TOL = 1e-8   # of the matrix norm: a caller's matrix Hermitian or a frame
ISOMETRY_TOL = 1e-9    # of n + 1, Frobenius: g* J g = J
DET_TOL = 1e-12        # of 1, the unit-diagonal Gram: det G <= 0
COORD_TOL = 1e-8       # of 1, the unit-free coordinates: two coordinates agree
