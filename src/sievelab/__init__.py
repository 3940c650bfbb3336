"""sievelab: exact large-sieve norms for families of Dirichlet characters
on rationals, combinatorial character identities, and sieve experiments.

The core objects are finite Hermitian Gram matrices whose largest
eigenvalues are the large-sieve constants of three families
(multiplicative with a twist modulus and archimedean window, additive
with Ramanujan-sum entries, and the all-moduli rational family), plus
exactly verified character identities (primitivity kernel, coset and
theta/chi separation, two-character factorization), special Euler
products, and height-sieve / variance experiments on rationals.
"""

from .arith import (
    divisors,
    factorize,
    is_prime,
    mobius,
    prime_factors,
    primes_in,
    totient,
)
from .characters import (
    CharGroup,
    DirichletChar,
    char_group,
    conductor,
    crt_product,
    induce,
    is_primitive,
    primitive_chars,
    primitive_part,
    rational_eval,
    trivial_char,
    value_table,
)
from .experiments import (
    FitResult,
    MonotonicityResult,
    duality_check,
    exponent_fit,
    monotonicity_check_N,
    monotonicity_check_Q,
)
from .kernels import (
    ChiFactorization,
    CosetSystem,
    DkTuple,
    IdentityReport,
    PrimitivityKernel,
    ThetaSeparationReport,
    archimedean_coset_check,
    chi_factorize,
    chiseparation_check,
    coset_identity_check,
    coset_reps,
    dk_tuples,
    kernel_detection_value,
    primitivity_kernel,
    random_char_table,
    theta_separation_check,
)
from .norms import (
    FamilySpec,
    GramMatrix,
    NormEstimate,
    additive_matrix,
    delta,
    delta_add,
    delta_rational,
    family_members,
    gram_additive,
    gram_bruteforce,
    gram_multiplicative,
    gram_rational,
    gram_rational_bruteforce,
    t_integral,
    top_eigenvalue,
)
from .rationals import (
    CoprimePair,
    RationalPoint,
    Ht,
    as_point,
    enumerate_pairs,
    ht,
    in_localization,
    rationals_up_to,
    reduce_mod,
    vp,
)
from .sieve_apps import (
    BdhInput,
    SievePlan,
    SiftedReport,
    bdh_lhs,
    bdh_rhs_chars,
    big_H,
    random_bdh_input,
    read_plan,
    sieve_inequality_report,
    sifted_set,
)
from .specials import (
    delta_factor,
    exponent_sequence,
    nu_factor,
    z11_euler,
    z_cd_euler,
    z_cd_series,
)

__version__ = "1.0.0"
