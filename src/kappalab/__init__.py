"""kappalab: regular-open-set function families on three classical spaces.

The library implements, checks and refutes [0,1]-valued function families
indexed by (regular) open sets of the Sorgenfrey line, the double arrow
space and the Niemytzki plane: explicit formulas, q-indexed approximations,
seeded axiom checks with replayable witnesses, and exact-rational
counterexample bundles.
"""

from .approximations import (
    Approximation,
    QGrid,
    TangentLens,
    approximation_to_stratification,
    realize_sublevel,
    stratification_to_approximation,
)
from .basesets import (
    BasicOpenSet,
    ClopenInterval,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    OpenInterval,
    TangentDisc,
    basic_closure_member,
    basic_member,
    basic_neighborhood,
)
from .convergence import ConvergenceCertificate, MalformedWitnessError, verify_convergence
from .families import (
    Stratification,
    disc_in_union,
    double_arrow_ro,
    doublearrow_f,
    g_family,
    g_stratification,
    niemytzki_basic_f,
    niemytzki_kappa,
    niemytzki_union_f,
    pairwise_separated,
    sorgenfrey_f,
    sorgenfrey_kappa,
    user_supplied,
)
from .harness import (
    CheckReport,
    SamplePlan,
    bind_chain,
    bridge_4_iff_d,
    chain_limit_value,
    check_condition_1,
    check_condition_2,
    check_condition_3,
    check_condition_4,
    check_condition_d,
    check_conditions_abc,
    hausdorff_witness,
    replay_witness,
    separate_regular_closed,
)
from .numerics import EPS, ModeMixError, Scalar
from .refuters import (
    NOT_FOUND,
    REFUTED,
    RefutationResult,
    SorgenfreyCandidate,
    characteristic_candidate,
    clopen_only_candidate,
    doublearrow_not_kappa,
    doublearrow_not_kappa_default,
    g_family_not_extendable,
    niemytzki_not_stratifiable,
    refute_sorgenfrey_A,
    reverify_bundle,
    right_gap_candidate,
)
from .rosets import (
    DecreasingChain,
    MalformedChainError,
    NonMonotoneChainError,
    NotRegularOpenError,
    ParametricBasicSet,
    ParamValue,
    RegularOpenSet,
    basic_subset,
    decreasing_chain_interior,
    member,
    validate_regular_open,
)
from .spaces import (
    DoubleArrowPoint,
    NiemytzkiPoint,
    Point,
    SorgenfreyPoint,
    Space,
    SpaceMismatchError,
    lex_less,
)

__version__ = "0.1.0"
