"""Exception types shared across the solver stack."""


class CoincidenceError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(CoincidenceError):
    """Operands have incompatible shapes."""


class RankDeficient(CoincidenceError):
    """Linear system has numerical rank below its row count."""


class NoCrossing(CoincidenceError):
    """The majorant functions never meet on the search window."""


class BracketFailure(CoincidenceError):
    """Sign conditions for root bracketing fail; the majorant pair is inconsistent."""


class BudgetExceeded(CoincidenceError):
    """A covering inversion stepped outside its radius budget.

    Signals a broken covering contract (for instance an inflated covering
    constant supplied by the caller).
    """

    def __init__(self, message, step=None, budget=None):
        super().__init__(message)
        self.step = step
        self.budget = budget

    @property
    def overshoot(self):
        if self.step is None or self.budget is None:
            return None
        return self.step - self.budget


class NegativeDiscriminant(CoincidenceError):
    """Quadratic operator equation with b^2 - 4ac < 0; no solution is certified."""


class NotContractive(CoincidenceError):
    """Lipschitz constant is not strictly below the covering constant."""


class InsufficientData(CoincidenceError):
    """Trace too short for a rate fit."""


class NonFiniteValue(CoincidenceError, ValueError):
    """A value that must be finite is inf or NaN.

    Raised for a non-finite input vector or matrix, a non-finite output of a
    user map, an iterate whose step norm is not finite (an inf or NaN
    entry in x_j, in Phi(x_j), or in the covering's answer), and an iterate
    whose residual ||Phi(x_j) - Psi(x_j)|| is not finite. It is also a
    ValueError, so callers that refuse bad input by catching ValueError
    still do.
    """
