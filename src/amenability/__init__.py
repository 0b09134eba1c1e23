"""Executable amenability: Folner sets, almost invariant subspaces, profiles.

A library for working with the finite witnesses of amenability on both
sides of the group / group-algebra correspondence: exact linear algebra
over GF(p) and Q, subspace matroids and their base polytopes, seeded
Monte-Carlo Steiner points with exact-rational coupling, boundary-ratio
reports for sets and subspaces, and isoperimetric profile tables.
"""

from .errors import (
    AmenabilityError,
    CapacityError,
    ContainmentError,
    DegenerateInputError,
    DomainError,
    FieldMismatchError,
    InternalInvariantError,
    InvalidBasisError,
    InvalidFieldError,
    ShapeError,
)
from .linalg import (
    GF2,
    RATIONALS,
    FieldSpec,
    FormalCombination,
    LabeledSubspace,
    act_subspace,
    align_pair,
    contains_subspace,
    gf,
    quotient_dim,
    rref,
    subspace_from_json,
    subspace_from_rows,
    subspace_sum,
    subspace_to_json,
    zero_subspace,
)
from .matroid import (
    SubspaceMatroid,
    basis_exchange,
    basis_extend,
    basis_restrict,
    enumerate_bases,
    greedy_min_basis,
    initial_basis,
    is_basis,
    is_independent,
)
from .steiner import (
    CHUNK,
    CoupledEstimate,
    DirectionSampler,
    MinkowskiCheck,
    SteinerEstimate,
    angles_from_hits,
    coupled_nested_estimate,
    estimate_steiner,
    exterior_angles,
    minkowski_combination_check,
)
from .groups import (
    LAMP_IDENTITY,
    FAMILY_KINDS,
    GroupAction,
    LampElement,
    ball,
    base_point,
    family_generate,
    finite_action,
    free_group,
    integer_lattice,
    integer_line,
    lamplighter,
    parse_group,
    permutation_action_from_json,
)
from .folner import (
    AbsorbResult,
    FolnerReport,
    FunctionWitness,
    LayerCakeResult,
    WeightedFunction,
    absorb_finite,
    function_report,
    layer_cake,
    set_report,
    set_to_subspace,
    subspace_report,
    subspace_to_function,
)
from .profile import (
    EXACT_WITHIN_WINDOW,
    FAMILY_UPPER_BOUND,
    ModuleVsSet,
    ProfileRow,
    ProfileTable,
    compare_module_vs_set,
    iso_family_upper,
    iso_set_exact,
    naive_iso_set,
    phi_from_table,
)

__version__ = "0.1.0"
