"""Split-ballot internet voting, small enough to enumerate.

Ballots are blind-signed by a registration authority, split into k
multiplicative shares across independent vote servers, re-votable by
overwrite, and tallied by reconstructing the share products.  Alongside the
protocol actors the package ships a deterministic election simulator and an
adversary harness that measures collusion attacks exactly on small fields,
where every claimed probability can be checked by counting instead of
sampling.
"""

from .errors import (
    ConfigError,
    DomainError,
    FieldMismatchError,
    NoInverseError,
    ParameterError,
    ProtocolAbortError,
    RegimeError,
    ScenarioError,
    VotingError,
)
from .modmath import FIXTURE_FIELD, FieldParams, generate_params

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "FIXTURE_FIELD",
    "FieldMismatchError",
    "FieldParams",
    "NoInverseError",
    "ParameterError",
    "ProtocolAbortError",
    "RegimeError",
    "ScenarioError",
    "VotingError",
    "__version__",
    "generate_params",
]
