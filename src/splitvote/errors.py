"""Exception types shared across the package."""


class VotingError(Exception):
    """Base class for every error this package raises on purpose."""


class ParameterError(VotingError, ValueError):
    """An argument is outside its documented range."""


class FieldMismatchError(VotingError, ValueError):
    """A signature and a key belong to different field parameter sets."""


class NoInverseError(VotingError, ArithmeticError):
    """Zero has no multiplicative inverse."""


class DomainError(VotingError, ValueError):
    """A value violates a protocol domain rule (zero share, outside the subgroup, ...)."""


class RegimeError(VotingError):
    """An exhaustive computation was requested outside the small-field regime."""


class ProtocolAbortError(VotingError):
    """A counterparty refused to complete an interactive protocol."""


class ScenarioError(VotingError, ValueError):
    """A collusion scenario falls outside the scope of the analysed attacks."""


class ConfigError(VotingError):
    """Invalid run configuration; ``problems`` lists field-level diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
