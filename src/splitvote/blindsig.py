"""Exponentiation signatures with blinding, plus the interactive protocols
used to check them without revealing the signing key.

The signature on a message m is m**x mod p.  A registrant hides a secret
value from the signer by multiplying in g**b first; the signer only ever
sees uniformly distributed subgroup elements.  Because verification by
exponent comparison needs x itself, third parties check signatures through
a challenge/response confirmation round instead, with a two-round disavowal
variant that separates real forgeries from a signer falsely denying, and a
batched round that confirms a whole set of signatures at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Callable, Optional, Sequence

from .errors import DomainError, FieldMismatchError, ParameterError, ProtocolAbortError
from .modmath import FieldParams, FixedBase, in_subgroup, mod_exp, mod_inv, require_unit


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
        return PublicKey(self.params.g_table.power(self.exponent), self.params)


@dataclass(frozen=True)
class PublicKey:
    """g**x; a subgroup element."""

    value: int
    params: FieldParams

    def __post_init__(self):
        if not in_subgroup(self.value, self.params):
            raise ParameterError("public key must lie in the subgroup")

    @cached_property
    def table(self) -> FixedBase:
        """Fixed-base table for powers of y, built on first use."""
        return FixedBase(self.value, self.params)


@dataclass(frozen=True)
class Signature:
    """A claimed (message, sig) pair.

    Instances are plain records so that forged or corrupted claims stay
    representable; ``sign`` output always satisfies sig = message**x with
    both halves in the subgroup.  Each half's subgroup verdict is computed
    at most once per object, so every check of one claim shares it.
    """

    message: int
    sig: int
    params: FieldParams

    @cached_property
    def message_in_subgroup(self) -> bool:
        return in_subgroup(self.message, self.params)

    @cached_property
    def sig_in_subgroup(self) -> bool:
        return in_subgroup(self.sig, self.params)

    def message_power(self, exponent: int) -> int:
        return mod_exp(self.message, exponent, self.params)

    def sig_power(self, exponent: int) -> int:
        return mod_exp(self.sig, exponent, self.params)


@dataclass(frozen=True)
class PublishedSignature(Signature):
    """A signature that every voter confirms, such as one on the ballot
    sheet: powers of each subgroup half come from a ``FixedBase`` table
    built on first use.  A half outside the subgroup keeps ``mod_exp``,
    since a table refuses it, so every power and verdict is that of a plain
    ``Signature``."""

    def message_power(self, exponent: int) -> int:
        if not self.message_in_subgroup:
            return super().message_power(exponent)
        return self._message_table.power(exponent)

    def sig_power(self, exponent: int) -> int:
        if not self.sig_in_subgroup:
            return super().sig_power(exponent)
        return self._sig_table.power(exponent)

    @cached_property
    def _message_table(self) -> FixedBase:
        return FixedBase(self.message, self.params)

    @cached_property
    def _sig_table(self) -> FixedBase:
        return FixedBase(self.sig, self.params)


@dataclass(frozen=True)
class ConfirmedSignature(Signature):
    """A claim that an accepted confirmation round found with both halves
    in the subgroup, rebuilt from its plain ints: the two verdicts are
    those of that round, and no check of it tests them again."""

    message_in_subgroup = True
    sig_in_subgroup = True


def random_signing_key(params: FieldParams, rng: Random) -> SigningKey:
    return SigningKey(rng.randrange(1, params.q), params)


def _same_field(sig: Signature, params: FieldParams) -> None:
    if sig.params != params:
        raise FieldMismatchError("signature and key belong to different fields")


def blind(message: int, factor: int, signer_key: PublicKey) -> int:
    """message * g**b for a blinding exponent b in [1, q-1] (b = 0 and b = q
    blind nothing); over uniform b this is uniform on the subgroup."""
    if not 1 <= factor <= signer_key.params.q - 1:
        raise ParameterError("blinding exponent must lie in [1, q-1]")
    if not in_subgroup(message, signer_key.params):
        raise DomainError("only subgroup members can be blinded")
    return _blind_member(message, factor, signer_key)


def _blind_member(message: int, factor: int, signer_key: PublicKey) -> int:
    """``blind`` for a message that is a subgroup member by construction."""
    params = signer_key.params
    return message * params.g_table.power(factor) % params.p


def sign(message: int, key: SigningKey) -> Signature:
    """message**x."""
    require_unit(message, key.params, "a signed value")
    return Signature(message, mod_exp(message, key.exponent, key.params), key.params)


def unblind(blinded_sig: int, factor: int, signer_key: PublicKey) -> int:
    """Strip the blinding from (m * g**b)**x by dividing out (g**x)**b."""
    params = signer_key.params
    return blinded_sig * mod_inv(signer_key.table.power(factor), params) % params.p


def verify_with_key(sig: Signature, key: SigningKey) -> bool:
    """Direct check sig = message**x; only the key holder can run this."""
    _same_field(sig, key.params)
    return sig.sig == sig.message_power(key.exponent)


Responder = Callable[[int], Optional[int]]


def honest_responder(key: SigningKey) -> Responder:
    """A signer that answers every confirmation challenge with challenge**x."""

    def respond(challenge: int) -> int:
        return mod_exp(challenge, key.exponent, key.params)

    return respond


@dataclass(frozen=True)
class ConfirmationTranscript:
    """One round as its verifier saw it; a single signature has weight 1."""

    e1: int
    e2: int
    challenge: int
    response: int
    accepted: bool
    weights: tuple[int, ...]


def confirm(
    sig: Signature, signer_key: PublicKey, responder: Responder, rng: Random
) -> ConfirmationTranscript:
    """One confirmation round for a claimed signature.

    The verifier hides fresh exponents e1, e2, drawn in that order from
    ``rng`` uniformly in [1, q-1], inside the challenge c = message**e1 *
    g**e2 and accepts iff the signer's response c**x equals sig**e1 * y**e2
    -- which holds for every challenge exactly when sig really is
    message**x.  Claims outside the subgroup are never accepted.  This is
    ``confirm_batch`` on the one signature, which draws no weight for it.
    """
    return confirm_batch((sig,), signer_key, responder, rng)


def confirm_batch(
    sigs: Sequence[Signature], signer_key: PublicKey, responder: Responder, rng: Random
) -> ConfirmationTranscript:
    """One confirmation round for a whole set of claimed signatures.

    ``confirm`` on (prod m_i**r_i, prod s_i**r_i) for secret weights r_i
    (Bellare, Garay and Rabin, EUROCRYPT '98), accepted only if every sig
    lies in the subgroup.  The verifier draws the weights, then e1, then
    e2, from ``rng`` uniformly in [1, q-1]; a lone signature gets weight 1
    and no draw, since its weight would only rescale e1.  No weight cancels
    one bad signature in the prime-order subgroup, so it passes with
    probability at most 1/q; two cancel for 1/(q-1) of the weights.  Each
    power m_i**(r_i*e1 mod q) and s_i**(r_i*e1 mod q) is the signature's
    own ``message_power`` or ``sig_power``, a table lookup for a
    ``PublishedSignature``.
    """
    params = signer_key.params
    q, p = params.q, params.p
    for sig in sigs:
        _same_field(sig, params)
        if not sig.message_in_subgroup:
            raise DomainError("confirmation needs a subgroup message")
    weights = [1] if len(sigs) == 1 else [rng.randrange(1, q) for _ in sigs]
    e1, e2 = rng.randrange(1, q), rng.randrange(1, q)
    exponents = [r * e1 % q for r in weights]
    challenge = params.g_table.power(e2)
    for sig, t in zip(sigs, exponents):
        challenge = challenge * sig.message_power(t) % p
    response = responder(challenge)
    if response is None:
        raise ProtocolAbortError("signer refused the confirmation challenge")
    accepted = all(sig.sig_in_subgroup for sig in sigs)
    if accepted:
        expected = signer_key.table.power(e2)
        for sig, t in zip(sigs, exponents):
            expected = expected * sig.sig_power(t) % p
        accepted = response == expected
    return ConfirmationTranscript(e1, e2, challenge, response, accepted, tuple(weights))


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
    params = claimed.params
    d1, d2 = first.response, second.response
    if not (in_subgroup(d1, params) and in_subgroup(d2, params)):
        return DisavowalOutcome(False, (first, second))
    y, p = signer_key.table, params.p
    a1 = mod_exp(d1 * mod_inv(y.power(first.e2), params) % p, second.e1, params)
    a2 = mod_exp(d2 * mod_inv(y.power(second.e2), params) % p, first.e1, params)
    return DisavowalOutcome(a1 == a2, (first, second))
