"""Exponentiation signatures with blinding, plus the interactive protocols
used to check them without revealing the signing key.

The signature on a message m is m**x mod p.  A registrant hides a secret
value from the signer by multiplying in g**b first; the signer only ever
sees uniformly distributed subgroup elements.  Because verification by
exponent comparison needs x itself, third parties check signatures through
a challenge/response confirmation round instead, with a two-round disavowal
variant that separates real forgeries from a signer falsely denying.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Callable, Optional

from .errors import DomainError, ParameterError, ProtocolAbortError
from .modmath import FieldElement, FieldParams, FixedBase, in_subgroup, mod_exp, mod_inv


@dataclass(frozen=True)
class SigningKey:
    """Secret exponent x with 1 <= x <= q - 1."""

    exponent: int
    params: FieldParams

    def __post_init__(self):
        if not 1 <= self.exponent <= self.params.q - 1:
            raise ParameterError("signing exponent must lie in [1, q-1]")

    def public_key(self) -> PublicKey:
        """g**x, computed once per key so its table is built once too."""
        return self._public_key

    @cached_property
    def _public_key(self) -> PublicKey:
        return PublicKey(self.params.g_table.power(self.exponent))


@dataclass(frozen=True)
class PublicKey:
    """g**x; a subgroup element."""

    value: FieldElement

    def __post_init__(self):
        if not in_subgroup(self.value):
            raise ParameterError("public key must lie in the subgroup")

    @cached_property
    def table(self) -> FixedBase:
        """Fixed-base table for powers of y, built on first use."""
        return FixedBase(self.value)


@dataclass(frozen=True)
class BlindingFactor:
    """Blinding exponent b with 1 <= b <= q - 1 (b = 0 and b = q blind nothing)."""

    exponent: int
    params: FieldParams

    def __post_init__(self):
        if not 1 <= self.exponent <= self.params.q - 1:
            raise ParameterError("blinding exponent must lie in [1, q-1]")


@dataclass(frozen=True)
class Signature:
    """A claimed (message, sig) pair.

    Instances are plain records so that forged or corrupted claims stay
    representable; ``sign`` output always satisfies sig = message**x with
    both halves in the subgroup.
    """

    message: FieldElement
    sig: FieldElement


def random_signing_key(params: FieldParams, rng: Random) -> SigningKey:
    return SigningKey(rng.randrange(1, params.q), params)


def random_blinding_factor(params: FieldParams, rng: Random) -> BlindingFactor:
    return BlindingFactor(rng.randrange(1, params.q), params)


def blind(message: FieldElement, factor: BlindingFactor, signer_key: PublicKey) -> FieldElement:
    """message * g**b; over uniform b this is uniform on the subgroup."""
    if not in_subgroup(message):
        raise DomainError("only subgroup members can be blinded")
    return message * message.params.g_table.power(factor.exponent)


def sign(message: FieldElement, key: SigningKey) -> Signature:
    """message**x."""
    if message.value == 0:
        raise DomainError("cannot sign zero")
    return Signature(message, mod_exp(message, key.exponent))


def unblind(blinded_sig: FieldElement, factor: BlindingFactor, signer_key: PublicKey) -> FieldElement:
    """Strip the blinding from (m * g**b)**x by dividing out (g**x)**b."""
    return blinded_sig * mod_inv(signer_key.table.power(factor.exponent))


def verify_with_key(sig: Signature, key: SigningKey) -> bool:
    """Direct check sig = message**x; only the key holder can run this."""
    return sig.sig == mod_exp(sig.message, key.exponent)


Responder = Callable[[FieldElement], Optional[FieldElement]]


def honest_responder(key: SigningKey) -> Responder:
    """A signer that answers every confirmation challenge with challenge**x."""

    def respond(challenge: FieldElement) -> FieldElement:
        return mod_exp(challenge, key.exponent)

    return respond


@dataclass(frozen=True)
class ConfirmationTranscript:
    e1: int
    e2: int
    challenge: int
    response: int
    accepted: bool

    def to_record(self) -> str:
        """Canonical text record: decimal fields in fixed order."""
        return (
            f"e1={self.e1} e2={self.e2} challenge={self.challenge} "
            f"response={self.response} accepted={1 if self.accepted else 0}"
        )


def confirm(
    sig: Signature,
    signer_key: PublicKey,
    responder: Responder,
    rng: Random | None = None,
    *,
    e1: int | None = None,
    e2: int | None = None,
) -> ConfirmationTranscript:
    """One confirmation round for a claimed signature.

    The verifier hides fresh exponents e1, e2 inside the challenge
    c = message**e1 * g**e2 and accepts iff the signer's response c**x
    equals sig**e1 * y**e2 -- which holds for every challenge exactly when
    sig really is message**x.  Claims outside the subgroup are never
    accepted.

    Explicit e1/e2 pin the challenge for exhaustive soundness sweeps; live
    runs draw them uniformly from [1, q-1].
    """
    params = sig.message.params
    if not in_subgroup(sig.message):
        raise DomainError("confirmation needs a subgroup message")
    if e1 is None:
        e1 = rng.randrange(1, params.q)
    if e2 is None:
        e2 = rng.randrange(1, params.q)
    if not (0 <= e1 < params.q and 0 <= e2 < params.q):
        raise ParameterError("challenge exponents must lie in [0, q)")
    challenge = mod_exp(sig.message, e1) * params.g_table.power(e2)
    response = responder(challenge)
    if response is None:
        raise ProtocolAbortError("signer refused the confirmation challenge")
    accepted = in_subgroup(sig.sig) and (
        response == mod_exp(sig.sig, e1) * signer_key.table.power(e2)
    )
    return ConfirmationTranscript(e1, e2, challenge.value, response.value, accepted)


@dataclass(frozen=True)
class DisavowalOutcome:
    is_forgery: bool
    rounds: tuple[ConfirmationTranscript, ...]


def disavow(
    claimed: Signature,
    signer_key: PublicKey,
    responder: Responder,
    rng: Random,
) -> DisavowalOutcome:
    """Two independent confirmation rounds plus a cross-consistency check.

    A claim that fails both rounds counts as a forgery only when the two
    responses agree with each other: (d1 / y**e2)**e1' = (d2 / y**e2')**e1
    holds whenever the signer honestly exponentiates, but a signer inventing
    responses to deny a valid signature only satisfies it with probability
    about 1/q.  Responses outside the subgroup are proof of misbehaviour by
    themselves, so they also count against the signer.
    """
    first = confirm(claimed, signer_key, responder, rng)
    if first.accepted:
        return DisavowalOutcome(False, (first,))
    second = confirm(claimed, signer_key, responder, rng)
    if second.accepted:
        return DisavowalOutcome(False, (first, second))
    params = claimed.message.params
    d1 = params.element(first.response)
    d2 = params.element(second.response)
    if not (in_subgroup(d1) and in_subgroup(d2)):
        return DisavowalOutcome(False, (first, second))
    y = signer_key.table
    a1 = mod_exp(d1 * mod_inv(y.power(first.e2)), second.e1)
    a2 = mod_exp(d2 * mod_inv(y.power(second.e2)), first.e1)
    return DisavowalOutcome(a1 == a2, (first, second))
