from collections import Counter
from typing import NamedTuple

import pytest

from splitvote.blindsig import confirm_batch
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


class PinnedDraws(ScriptedRandom):
    """A ``ScriptedRandom`` without the range check, so a sweep can pin a
    draw no live round makes, such as e1 = 0."""

    def randrange(self, start, stop=None):
        return self.values.pop(0)


def pinned_round(sigs, signer_key, responder, e1, e2, weights=()):
    """``confirm_batch`` with its draws pinned: ``weights`` (none for a
    lone signature), then e1, then e2.  The round must use every pinned
    draw, which pins the order it draws them in."""
    draws = PinnedDraws([*weights, e1, e2])
    transcript = confirm_batch(sigs, signer_key, responder, draws)
    assert draws.values == [], f"pinned draws {draws.values} left unused"
    return transcript


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


def kind_counts(bus) -> Counter:
    """How many messages of each kind the bus has logged."""
    return Counter(message.kind for message in logged(bus))
