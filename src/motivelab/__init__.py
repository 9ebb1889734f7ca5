"""Exact finite-group algebra around twisted group algebras and motive
skeletons: Schur multipliers, 2-cocycle classes, representation rings,
regular-class counts, exceptional-collection decompositions, and the
Euler-characteristic factorization of the associated motivic measure."""

from .groups import (
    FiniteGroup,
    Subgroup,
    ConjugacyClass,
    CosetSpace,
    construct_group,
    cyclic_group,
    symmetric_group,
    dihedral_group,
    elementary_abelian_group,
    product_group,
    group_from_cayley,
    group_from_permutations,
    coset_space,
    abelianization,
)
from .cyclotomic import Cyclotomic
from .intlinalg import solve_mod
from .cocycles import (
    TwoCocycle,
    CohomClass,
    SchurMultiplier,
    central_pairing_cocycle,
    cocycle_validate,
    is_cohomologous,
    schur_multiplier,
)
from .characters import (
    CharacterTable,
    VirtualCharacter,
    RingIdempotents,
    character_table,
    idempotents,
    is_unit_at_I,
    permutation_character,
    rank,
    restrict,
)
from .twisted import (
    TwistedGroupAlgebra,
    RegularityReport,
    WedderburnProfile,
    alpha_regular,
    build_twisted,
    center_basis,
    invariant_copies,
    wedderburn_dims,
)
from .motives import (
    Block,
    ChowSkeleton,
    CollectionSpec,
    MotiveAtom,
    MotiveSkeleton,
    check_via,
    chow_skeleton,
    decompose_collection,
    hom_rank,
    induced_atom,
    localized_isomorphic,
    restrict_skeleton,
    skeleton_hom_rank,
    twisted_unit,
)
from .catalog import ActionSpec, CatalogEntry, catalog_lookup, instantiate
from .measures import (
    K0NCClass,
    K0VarExpr,
    ProductSymbol,
    VarietySymbol,
    blowup_check,
    euler_char_rep,
    evaluate_invariant,
    factorization_check,
    hh_class,
    mu_nc,
    orbifold_dims,
)

__version__ = "0.1.0"
