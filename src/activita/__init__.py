"""Matroid activity theory: active orders, activity complexes, shellings."""

from .activity import (
    ActivityProfile,
    CrapoDecomposition,
    activity_profile,
    activity_profile_by_exchange,
    broken_circuits,
    crapo_decompose_subset,
    flip_involution,
    is_nbc,
    nbc_sets,
    related_basis,
)
from .bitsets import elems_of, mask_of, parse_subset, subset_str
from .complexes import (
    FHVector,
    SimplicialComplex,
    blocks,
    build_complex,
    facet_F,
    facet_G,
    independence_complex,
    induced_subcomplex,
    xyz,
)
from .corpus import builtin_corpus, m5
from .matroid import (
    Matroid,
    from_bases,
    graphic,
    linear_over_prime_field,
    relabel,
    uniform,
)
from .orders import (
    ExtensionSample,
    Poset,
    boolean_interval,
    build_poset,
    compare_bases,
    first_extension,
    leq_extint_ind,
    leq_flip_ind,
    linear_extensions,
    meet_join_ind,
    random_extension,
)
from .shelling import (
    ShellingReport,
    Witness,
    exchange_down_basis,
    flip_restrictions,
    h_complex_check,
    property_H_check,
    restriction_sets_bruteforce,
    shelling_witness,
    verify_shelling,
    verify_shelling_pairwise,
    witness_pass,
)
from .specio import parse_spec, spec_dict
from .suite import Finding, run_suite
from .tutte import (
    BiPoly,
    IdentityReport,
    bivariate_restriction_polynomial,
    h_polynomial,
    identity_report,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)

__version__ = "0.1.0"
