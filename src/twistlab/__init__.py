"""Desk-scale twisted sums of the reals with finitely supported sequence
spaces: quasi-linear functionals, the twisted quasi-norm, certificate-carrying
budgeted-sum set calculus, the inductive neighborhood-base construction, and
adversarial verifiers that replay every inequality the construction rests on.
"""

from .seqspace import (
    FinSeq,
    MixedSeq,
    MixedSpace,
    SeqSpace,
    disjoint_supports,
    in_hyperplane_H,
    james_norm,
    norm_mixed,
)
from .quasilinear import (
    Ribe,
    Scaled,
    UserLinear,
    WeightedRibe,
    evaluate,
    homogeneity_residual,
    iterated_defect_check,
    kernel_normalize,
    nonsplit_witness,
    normalize_constant,
    quasi_defect,
    ribe_eval,
    split_map_from_ribe,
    weighted_ribe_eval,
)
from .twisted import (
    TwistedVec,
    ball_radius,
    nearly_convex_ball,
    quasi_norm,
    quasi_triangle_ratio,
    quotient,
)
from .sumsets import (
    SumCertificate,
    SumFamily,
    base_axioms_check,
    certificate_valid,
    certificate_value,
    hull_membership,
    merge_certificates,
    scale_certificate,
)
from .construction import (
    ChainTranscript,
    ConstructionError,
    ConstructionState,
    basis_constant,
    build_level,
    choose_m,
    default_cn,
    enumerate_e,
    final_bound_check,
    fn_family,
    make_case_a_inputs,
    make_case_c_inputs,
    normalize_generators,
    run_construction,
    tail_index,
    verify_chain,
)
from .oracles import (
    OracleReport,
    chain_fuzzer,
    lemma5_adversary,
    min_crosspolytope_norm,
    quasi_constant_adversary,
)

__version__ = "0.1.0"
