from typing import NamedTuple

import pytest

from splitvote.modmath import FIXTURE_FIELD


@pytest.fixture
def field():
    return FIXTURE_FIELD


class ScriptedRandom:
    """Feeds predetermined draws to code expecting a Random."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, start, stop=None):
        value = self.values.pop(0)
        lo, hi = (0, start) if stop is None else (start, stop)
        assert lo <= value < hi, f"scripted value {value} outside [{lo}, {hi})"
        return value


class LoggedMessage(NamedTuple):
    """One message read back from its rendered log line."""

    sender: str
    recipient: str
    kind: str
    fields: dict[str, str]

    @classmethod
    def parse(cls, line: str) -> "LoggedMessage":
        _seq, sender, _arrow, recipient, kind, *pairs = line.split(" ")
        return cls(sender, recipient, kind, dict(pair.split("=", 1) for pair in pairs))


def logged(bus, start=0):
    """The bus's messages from position ``start`` on, parsed from its log."""
    return [LoggedMessage.parse(line) for line in bus.render_log()[start:]]
