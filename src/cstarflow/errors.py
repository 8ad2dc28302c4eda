"""Exception types shared across the library."""


class CstarflowError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatchError(CstarflowError):
    """Operands live over different block shapes or module ranks."""


class EigFailureError(CstarflowError):
    """An eigendecomposition or a singular-value decomposition failed.

    A norm's input holds an entry that is NaN or infinite (refused before
    LAPACK runs), LAPACK reported a failure (no convergence, or a NaN
    entry in an eigendecomposition's input) or returned NaN, or a
    randomized norm estimate met a non-finite probe norm.
    """


class NotStrictlyPositiveError(CstarflowError):
    """Operand is not Hermitian with spectrum bounded away from zero."""


class NodesTooFewError(CstarflowError):
    """Quadrature plan has fewer nodes than the admissibility rule allows."""


class NotSeparatingError(CstarflowError):
    """Supplied functional family has a nontrivial joint kernel."""


class NotCommutingError(CstarflowError):
    """Generator pairs do not commute within tolerance."""


class BranchAmbiguityError(CstarflowError):
    """Logarithm halving never stabilised; generator branch is ambiguous."""


class NotAGroupError(CstarflowError):
    """Sampled map fails the one-parameter group probe invariants."""


class ZeroFunctionalError(CstarflowError):
    """Positive functional vanishes; no localization can be built."""


class IllDefinedError(CstarflowError):
    """Localization factors miss their density, so induced operators would break their defining relation."""


class FamilyNotFaithfulError(CstarflowError):
    """State family is not faithful (summed density not positive definite)."""


class NotInAlgebraError(CstarflowError):
    """Operand lies outside the span of the carrier algebra."""


class InvarianceViolationError(CstarflowError):
    """Flow does not preserve the carrier algebra within tolerance."""


class IllConditionedError(CstarflowError):
    """Implementing operator condition number exceeds the safety bound."""


class ConfigInvalidError(CstarflowError):
    """Scenario configuration failed validation."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
