"""Exception types shared across the package."""


class SmdpsynthError(Exception):
    """Base class for all package-specific errors."""


class LtlSyntaxError(SmdpsynthError):
    """Malformed temporal formula. Carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownToken(LtlSyntaxError):
    """Illegal character in a temporal formula."""


class CapacityExceeded(SmdpsynthError):
    """A construction grew past its configured state budget."""


class EmptyCycle(SmdpsynthError):
    """Lasso word with an empty cycle part."""


class UnknownState(SmdpsynthError):
    """State id outside the model, or pair id outside the product."""


class ActionNotEnabled(SmdpsynthError):
    """Action queried at a state where it is not enabled."""


class ConfigError(SmdpsynthError, ValueError):
    """Invalid scenario, experiment, learner, schedule or risk functional
    configuration."""


class AlphabetMismatch(SmdpsynthError, ValueError):
    """Model, formula and automaton disagree on the atomic propositions."""


class UntrackedPair(SmdpsynthError):
    """No posterior for the queried state-action pair."""


class UntrackedTriple(SmdpsynthError):
    """No posterior for the queried state-action-successor triple."""


class MomentUndefined(SmdpsynthError):
    """Requested moment does not exist for a heavy-tailed predictive."""


class EmptyWinningCandidate(SmdpsynthError):
    """Initial winning candidate set is empty; nothing to learn."""


class NoAllowedAction(SmdpsynthError):
    """State has no allowed action in the current winning pair set."""


class NonfiniteRisk(SmdpsynthError):
    """A risk value came out non-finite."""


class EmptyPredictiveRow(SmdpsynthError):
    """A winning pair's predictive row has no mass inside the region."""


class InvalidRiskModel(SmdpsynthError, ValueError):
    """A risk model's discount, actions or rows are malformed, or a risk
    solver got a discount or tolerance out of range."""


class InvalidObservation(SmdpsynthError, ValueError):
    """An observation's dwell time is negative, NaN or infinite."""


class InvalidDistribution(SmdpsynthError, ValueError):
    """Weights to draw from have a NaN, infinite or negative entry, or no
    mass; or a posterior parameter is not finite and positive."""


class NotConverged(SmdpsynthError):
    """An iterative solver hit its sweep cap before its stopping rule held.
    Carries the solver's name and the last sup-norm residual."""

    def __init__(self, solver, residual, sweeps):
        super().__init__(f"{solver} did not converge in {sweeps} sweeps "
                         f"(last residual {residual:.3g})")
        self.solver = solver
        self.residual = residual


class PolicyLeavesW(SmdpsynthError):
    """Policy evaluation found a transition leaving the safe region."""


class DomainGap(SmdpsynthError):
    """Combined policy leaves some state without an action."""
