"""toricalc: exact projective torus quotients of affine space.

Polyhedra with integer inequality data, their graded semigroup rings,
and the semistability combinatorics of linearized subtorus actions,
all in exact arithmetic.
"""

from types import ModuleType as _ModuleType

from .actions import (
    LinearizedAction,
    betti,
    delta,
    evaluate_invariants,
    group_from_delta,
    invariant_monomial,
    is_semistable,
    linearized_action,
    minimal_unstable_supports,
    orbit_census,
    proj_equal,
)
from .errors import (
    AllZero,
    EmptyPolyhedron,
    InputError,
    LinealityPresent,
    NonSpanning,
    NotInSemigroup,
    NotPointed,
    NotSimple,
    TorsionQuotient,
    ToricalcError,
    Unbounded,
)
from .lattice import IntMatrix, NormalForm, snf
from .polyhedra import (
    Cone,
    Face,
    Polyhedron,
    VRepresentation,
    dilate,
    f_vector,
    face,
    homogenize,
    interval,
    is_bounded,
    is_empty,
    lattice_points,
    polyhedron,
    product,
    standard_simplex,
    unit_cube,
    vrep,
)
from .semigroups import (
    GradedPoint,
    RingPresentation,
    graded_generators,
    hilbert_basis,
    hilbert_function,
    relation_space,
)

__version__ = "0.1.0"
# Every public name imported above, and no submodule.
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
