"""quiverhopf: Hopf quivers, Yetter-Drinfeld modules and Nichols-algebra
graded dimensions for finite permutation groups over splitting prime fields."""

from .bimodule import (
    BimoduleMap,
    HopfBimodule,
    Report,
    build_bimodule,
    transversal_iso,
    verify_bimodule,
)
from .groups import (
    Automorphism,
    ConjClassCtx,
    Group,
    InputError,
    Permutation,
    automorphisms,
    centralizer_subgroup,
    class_of,
    conjugacy_classes,
    coset_factor,
    inner_only,
    parse_group,
)
from .modrep import (
    CharTable,
    ElementMap,
    FieldPrime,
    Irrep,
    character_table,
    choose_prime,
    irrep_matrices,
    rep_equal,
    rep_twist,
    validate_prime,
)
from .quiver import ArrowId, HopfQuiver, Ramification, parse_ramification
from .rsr import (
    RSR,
    RSRType,
    count_classes,
    enumerate_types,
    isomorphic,
    load_rsr,
    make_rsr,
    normalize_u,
    rsr_from_json,
    rsr_from_type,
    rsr_to_json,
    rsr_type,
    twist_rsr,
)
from .typeone import (
    TruncatedHopf,
    TruncationError,
    skew_primitive_report,
    tensor_hopf,
    type_one_dims,
    verify_hopf,
)
from .yd import (
    Braiding,
    BudgetError,
    YDModule,
    braiding,
    coinvariant_yd,
    nichols_dims,
    nichols_dims_multiprime,
    verify_yd,
    yd_from_rsr,
)

__version__ = "0.1.0"
