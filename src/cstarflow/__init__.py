"""Numerical one-parameter flows on finite-dimensional C*-algebras.

The library turns the calculus of norm-continuous one-parameter flows
on block matrix algebras and finite Hilbert modules into machine-checked
identities: analytic continuation on strips, Gaussian smearing by
quadrature and by closed form, generator recovery for unitary groups,
localization at positive functionals, and flows implemented by strictly
positive module operators.
"""

from .algebra import (
    HERM_TOL,
    POS_TOL_FACTOR,
    AlgebraElement,
    BlockShape,
    HermitianElement,
    PositiveFunctional,
    SpectralDecomposition,
    eigenvalues,
    identity,
    is_strictly_positive,
    power,
    spectral,
)
from .composition import (
    CommutingPair,
    TensorFlow,
    double_smear,
    gamma_continuation_check,
    tensor_continuation_check,
    tensor_element,
    tensor_flow,
)
from .continuation import (
    SmearingPlan,
    continue_exact,
    core_rescale,
    min_nodes,
    smear_oracle,
    smear_quadrature,
    three_lines_check,
    weak_continuation_check,
)
from .errors import (
    BranchAmbiguityError,
    ConfigInvalidError,
    CstarflowError,
    EigFailureError,
    FamilyNotFaithfulError,
    IllConditionedError,
    IllDefinedError,
    InvarianceViolationError,
    NodesTooFewError,
    NotAGroupError,
    NotCommutingError,
    NotInAlgebraError,
    NotSeparatingError,
    NotStrictlyPositiveError,
    ShapeMismatchError,
    ZeroFunctionalError,
)
from .flows import (
    FlowGenerator,
    conjugate,
    conjugate_norm,
    evaluate,
    in_eigenbasis,
    left_companion,
    right_companion,
)
from .hilbmod import (
    BlockCarrier,
    ModuleOperator,
    ModuleVector,
    SubalgebraBasis,
    affiliation_test,
    condition_number,
    identity_operator,
    inner,
    op_exp,
    op_log,
    op_power,
    strictly_positive,
)
from .implemented import (
    ImplementedFlow,
    implemented_continuation_check,
    implemented_evaluate,
    localized_middle_check,
)
from .stone import (
    InducedOperator,
    Localization,
    Recovery,
    SampledUnitaryGroup,
    hermitian_matrix_power,
    induce,
    induced_power_check,
    localize,
    recover,
    recovery_report,
    separating_check,
    stone,
    vector_smear,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
