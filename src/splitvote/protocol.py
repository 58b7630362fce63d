"""The election protocol as in-process actors on a deterministic message bus.

Four phases: the registration authority signs each voter's blinded anonymous
id and hands out a sheet of signed ballot values; the polling booth checks
credentials (with a key copy or by relaying confirmation rounds to the
authority) and issues session tokens; voters split their chosen signed
ballot into one multiplicative share per vote server; the tally pools the
shares back together, reconstructs, and matches products against the sheet.

Re-voting is overwrite-based: a later cast carries a higher version number
and replaces the stored shares, and authenticating again kills the previous
session token.  Every cross-actor effect travels as a message appended to
the bus in program order, so a fixed seed replays the identical log.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence

from .blindsig import (
    PublicKey,
    Responder,
    Signature,
    SigningKey,
    blind,
    confirm,
    disavow,
    honest_responder,
    random_blinding_factor,
    sign,
    unblind,
    verify_with_key,
)
from .errors import DomainError, ParameterError, VotingError
from .modmath import FieldElement, FieldParams, in_subgroup, sample_subgroup_element
from .sharing import ShareSet, split

KEY_COPY = "key-copy"
ZK_RELAY = "zk-relay"
BOOTH_MODES = (KEY_COPY, ZK_RELAY)
TALLY = "tally"


class IneligibleVoterError(VotingError):
    """The presented identity is not on the roster."""


class AlreadyRegisteredError(VotingError):
    """The identity was registered before."""


class CredentialInvalidError(VotingError):
    """A signature from the authority failed confirmation.

    ``disavowal`` carries the two-round verdict: actual forgery or the
    authority denying a valid signature.
    """

    def __init__(self, message: str, disavowal):
        super().__init__(message)
        self.disavowal = disavowal


class AuthenticationError(VotingError):
    """The booth rejected an authentication attempt."""


class CollisionError(VotingError):
    """A known anonymous id showed up bound to a different signature."""


@dataclass(frozen=True)
class Message:
    seq: int
    sender: str
    recipient: str
    kind: str
    fields: tuple[tuple[str, str], ...]

    def render(self) -> str:
        head = f"{self.seq:06d} {self.sender} -> {self.recipient} {self.kind}"
        body = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"{head} {body}" if body else head


class MessageBus:
    """Append-only ordered log; delivery is synchronous, so the order is the
    program order and identical across runs with the same seed."""

    def __init__(self):
        self.messages: list[Message] = []

    def post(self, sender: str, recipient: str, kind: str, **fields) -> Message:
        message = Message(
            len(self.messages) + 1,
            sender,
            recipient,
            kind,
            tuple((k, str(v)) for k, v in fields.items()),
        )
        self.messages.append(message)
        return message

    def render_log(self) -> list[str]:
        return [m.render() for m in self.messages]

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for m in self.messages:
            counts[m.kind] = counts.get(m.kind, 0) + 1
        return counts


@dataclass(frozen=True)
class VoterIdentity:
    v_id: str
    precinct: str = "main"


@dataclass(frozen=True)
class Credential:
    """Authority-signed anonymous id; all a voter needs after registration."""

    anon_id: FieldElement
    anon_id_sig: FieldElement

    def as_signature(self) -> Signature:
        return Signature(self.anon_id, self.anon_id_sig)


@dataclass(frozen=True)
class BallotSheet:
    """Public ballot values, one per candidate, plus their signatures."""

    candidates: tuple[str, ...]
    ballots: tuple[FieldElement, ...]
    signed_ballots: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.candidates) < 2:
            raise ParameterError("a ballot sheet needs at least two candidates")
        if not (len(self.candidates) == len(self.ballots) == len(self.signed_ballots)):
            raise ParameterError("candidates, ballots and signatures must line up")
        values = [b.value for b in self.ballots]
        if len(set(values)) != len(values):
            raise ParameterError("ballot values must be distinct")
        for ballot in self.ballots:
            if not in_subgroup(ballot):
                raise DomainError("ballot values must lie in the subgroup")
        signed = [b.value for b in self.signed_ballots]
        if len(set(signed)) != len(signed):
            raise ParameterError("signed ballot values must be distinct")

    @property
    def m(self) -> int:
        return len(self.candidates)

    def signed_index(self) -> dict[int, str]:
        return {s.value: label for s, label in zip(self.signed_ballots, self.candidates)}


@dataclass(frozen=True)
class SessionToken:
    """Opaque 128-bit session identifier bound to one anonymous id."""

    token: str
    bound_anon_id: int
    issued_at: int


@dataclass(frozen=True)
class CastRecord:
    version: int
    share: FieldElement


@dataclass(frozen=True)
class DeliveryResult:
    server: str
    accepted: bool
    reason: str


@dataclass(frozen=True)
class CastAck:
    """What the voter learns from one cast: which servers accepted."""

    version: int
    shares: ShareSet
    deliveries: tuple[DeliveryResult, ...]

    def accepted_servers(self) -> list[str]:
        return [d.server for d in self.deliveries if d.accepted]

    def complete(self, k: int) -> bool:
        return len(self.accepted_servers()) == k


@dataclass
class TallyResult:
    counts: dict[str, int]
    invalid: int
    inconsistent: int
    distinct_ids: int

    def render_lines(self, order: Sequence[str]) -> list[str]:
        lines = [f"count {label} = {self.counts[label]}" for label in order]
        lines.append(f"invalid = {self.invalid}")
        lines.append(f"inconsistent = {self.inconsistent}")
        lines.append(f"distinct_ids = {self.distinct_ids}")
        return lines


def _transcript_fields(transcript) -> dict[str, object]:
    return {
        "e1": transcript.e1,
        "e2": transcript.e2,
        "challenge": transcript.challenge,
        "response": transcript.response,
        "accepted": 1 if transcript.accepted else 0,
    }


class RegistrationAuthority:
    """Checks eligibility, signs blinded anonymous ids, and publishes the
    signed ballot sheet for each precinct."""

    name = "ra"

    def __init__(
        self,
        key: SigningKey,
        roster: Iterable[VoterIdentity],
        sheets: dict[str, BallotSheet],
    ):
        self.key = key
        self.roster = {identity.v_id: identity for identity in roster}
        self.sheets = dict(sheets)
        self.registered: set[str] = set()

    def public_key(self) -> PublicKey:
        return self.key.public_key()

    @property
    def responder(self) -> Responder:
        return honest_responder(self.key)

    def register(self, v_id: str, blinded: FieldElement, bus: MessageBus):
        """Sign a blinded anonymous id for an eligible, fresh registrant.

        The authority never sees the id itself, only message * g**b.
        """
        identity = self.roster.get(v_id)
        if identity is None:
            bus.post(self.name, f"voter/{v_id}", "register-reject", reason="ineligible")
            raise IneligibleVoterError(f"{v_id} is not on the roster")
        if v_id in self.registered:
            bus.post(self.name, f"voter/{v_id}", "register-reject", reason="already-registered")
            raise AlreadyRegisteredError(f"{v_id} already registered")
        sheet = self.sheets[identity.precinct]
        self.registered.add(v_id)
        signed_blinded = sign(blinded, self.key).sig
        bus.post(
            self.name,
            f"voter/{v_id}",
            "register-grant",
            signed_blinded=signed_blinded.value,
            ballots=",".join(str(b.value) for b in sheet.ballots),
            signed_ballots=",".join(str(s.value) for s in sheet.signed_ballots),
        )
        return signed_blinded, sheet


class Voter:
    """Carries the true identity through registration, then only the
    anonymous credential."""

    def __init__(
        self,
        identity: VoterIdentity,
        params: FieldParams,
        authority_key: PublicKey,
        rng: Random,
    ):
        self.identity = identity
        self.params = params
        self.authority_key = authority_key
        self.rng = rng
        self.credential: Credential | None = None
        self.sheet: BallotSheet | None = None
        self.version = 0

    @property
    def reg_name(self) -> str:
        return f"voter/{self.identity.v_id}"

    @property
    def anon_name(self) -> str:
        if self.credential is None:
            raise VotingError("not registered")
        return f"holder/{self.credential.anon_id.value}"

    def register(self, authority: RegistrationAuthority, bus: MessageBus) -> Credential:
        """Blind a fresh anonymous id, have it signed, unblind, and confirm
        every signature received before trusting it.  Id 1 is redrawn: the
        booth refuses it, since it is its own signature under every key."""
        anon_id = sample_subgroup_element(self.params, self.rng)
        while anon_id.value == 1:
            anon_id = sample_subgroup_element(self.params, self.rng)
        factor = random_blinding_factor(self.params, self.rng)
        blinded = blind(anon_id, factor, self.authority_key)
        bus.post(
            self.reg_name,
            authority.name,
            "register-request",
            v_id=self.identity.v_id,
            blinded=blinded.value,
        )
        signed_blinded, sheet = authority.register(self.identity.v_id, blinded, bus)
        anon_id_sig = unblind(signed_blinded, factor, self.authority_key)
        self._confirm_or_disavow(
            Signature(anon_id, anon_id_sig), "confirm-credential", authority, bus
        )
        for label, ballot, signed in zip(sheet.candidates, sheet.ballots, sheet.signed_ballots):
            self._confirm_or_disavow(
                Signature(ballot, signed), "confirm-ballot", authority, bus, candidate=label
            )
        self.credential = Credential(anon_id, anon_id_sig)
        self.sheet = sheet
        return self.credential

    def _confirm_or_disavow(self, signature, kind, authority, bus, **extra):
        transcript = confirm(signature, self.authority_key, authority.responder, self.rng)
        bus.post(self.reg_name, authority.name, kind, **extra, **_transcript_fields(transcript))
        if not transcript.accepted:
            verdict = disavow(signature, self.authority_key, authority.responder, self.rng)
            bus.post(
                self.reg_name,
                authority.name,
                "disavow",
                forgery=1 if verdict.is_forgery else 0,
            )
            raise CredentialInvalidError("authority signature failed confirmation", verdict)

    def cast(
        self,
        token: SessionToken,
        servers: Sequence["VoteServer"],
        candidate_index: int,
        bus: MessageBus,
        deliver_count: int | None = None,
    ) -> CastAck:
        """Split the chosen signed ballot and deliver one share per server.

        Delivery stops after ``deliver_count`` servers when given (fault
        injection for interrupted casts).  Every attempt, complete or not,
        bumps this credential's version.
        """
        if self.credential is None or self.sheet is None:
            raise VotingError("not registered")
        if not 0 <= candidate_index < self.sheet.m:
            raise ParameterError(f"candidate index {candidate_index} out of range")
        k = len(servers)
        if deliver_count is None:
            deliver_count = k
        if not 1 <= deliver_count <= k:
            raise ParameterError("deliver_count must lie in [1, k]")
        self.version += 1
        cast_value = self.sheet.signed_ballots[candidate_index]
        shares = split(cast_value, k, self.rng)
        anon_id = self.credential.anon_id
        deliveries = []
        for server, share in list(zip(servers, shares.shares))[:deliver_count]:
            bus.post(
                self.anon_name,
                server.name,
                "cast-share",
                anon_id=anon_id.value,
                version=self.version,
                share=share.value,
                token=token.token,
            )
            accepted, reason = server.store_share(anon_id, self.version, share, token, bus)
            deliveries.append(DeliveryResult(server.name, accepted, reason))
        return CastAck(self.version, shares, tuple(deliveries))


class PollingBooth:
    """Validates credentials and issues the session tokens servers check.

    ``key-copy`` booths hold a copy of the signing key and verify directly;
    ``zk-relay`` booths run a confirmation round against the authority, which
    therefore never learns which anonymous id is voting.  ``live`` maps each
    anonymous id to its one valid session token.
    """

    name = "booth"

    def __init__(
        self,
        mode: str,
        rng: Random,
        *,
        key: SigningKey | None = None,
        authority: RegistrationAuthority | None = None,
    ):
        if mode not in BOOTH_MODES:
            raise ParameterError(f"unknown booth mode {mode!r}")
        if mode == KEY_COPY and key is None:
            raise ParameterError("key-copy booth needs the signing key")
        if mode == ZK_RELAY and authority is None:
            raise ParameterError("zk-relay booth needs the authority")
        self.mode = mode
        self.rng = rng
        self.key = key
        self.authority = authority
        self.seen: dict[int, int] = {}
        self.live: dict[int, str] = {}
        self.clock = 0
        self.closed = False

    def authenticate(
        self,
        anon_id: FieldElement,
        anon_id_sig: FieldElement,
        bus: MessageBus,
    ) -> SessionToken:
        """Issue a session token for a valid credential.

        Re-authenticating with the same credential is the re-vote path: the
        previous token dies.  A known id under a *different* valid signature
        is a collision and the voter must re-register.
        """
        holder = f"holder/{anon_id.value}"
        bus.post(
            holder,
            self.name,
            "auth-request",
            anon_id=anon_id.value,
            signature=anon_id_sig.value,
        )
        if self.closed:
            bus.post(self.name, holder, "auth-reject", reason="closed")
            raise AuthenticationError("polling is closed")
        # sign() never issues a signature on 0, but 0**x = 0 would pass the
        # direct key check, so malformed ids are cut off before either mode
        if not in_subgroup(anon_id):
            bus.post(self.name, holder, "auth-reject", reason="malformed-id")
            raise AuthenticationError("anonymous id must lie in the subgroup")
        # 1**x = 1, so (1, 1) verifies under every key without registration
        if anon_id.value == 1:
            bus.post(self.name, holder, "auth-reject", reason="degenerate-id")
            raise AuthenticationError("anonymous id 1 is signed by every key")
        candidate = Signature(anon_id, anon_id_sig)
        if self.mode == KEY_COPY:
            valid = verify_with_key(candidate, self.key)
        else:
            transcript = confirm(
                candidate, self.authority.public_key(), self.authority.responder, self.rng
            )
            bus.post(self.name, self.authority.name, "auth-zk", **_transcript_fields(transcript))
            valid = transcript.accepted
        if not valid:
            bus.post(self.name, holder, "auth-reject", reason="invalid-signature")
            raise AuthenticationError("credential signature does not verify")
        recorded = self.seen.get(anon_id.value)
        if recorded is not None and recorded != anon_id_sig.value:
            bus.post(self.name, holder, "auth-reject", reason="collision")
            raise CollisionError("anonymous id already bound to a different signature")
        self.seen[anon_id.value] = anon_id_sig.value
        self.clock += 1
        token = SessionToken(f"{self.rng.getrandbits(128):032x}", anon_id.value, self.clock)
        self.live[anon_id.value] = token.token
        bus.post(self.name, holder, "auth-grant", token=token.token, issued_at=token.issued_at)
        return token

    def token_valid(self, token: str, anon_id_value: int) -> bool:
        return not self.closed and self.live.get(anon_id_value) == token

    def revoke(self, token: SessionToken) -> None:
        if self.live.get(token.bound_anon_id) == token.token:
            del self.live[token.bound_anon_id]

    def close(self, bus: MessageBus) -> None:
        self.closed = True
        self.live.clear()
        bus.post(self.name, "*", "close")


class VoteServer:
    """Stores one share per anonymous id; strictly newer versions overwrite."""

    def __init__(self, index: int, booth: PollingBooth):
        self.index = index
        self.name = f"server/{index}"
        self.booth = booth
        self.store: dict[int, CastRecord] = {}

    def store_share(
        self,
        anon_id: FieldElement,
        version: int,
        share: FieldElement,
        token: SessionToken,
        bus: MessageBus,
    ) -> tuple[bool, str]:
        holder = f"holder/{anon_id.value}"
        bus.post(self.name, self.booth.name, "token-check", token=token.token, anon_id=anon_id.value)
        ok = self.booth.token_valid(token.token, anon_id.value)
        bus.post(self.booth.name, self.name, "token-ok" if ok else "token-bad", token=token.token)
        if not ok:
            return self._reject(holder, anon_id, version, "unknown-token", bus)
        if share.value == 0:
            return self._reject(holder, anon_id, version, "zero-share", bus)
        existing = self.store.get(anon_id.value)
        if existing is not None and version <= existing.version:
            return self._reject(holder, anon_id, version, "stale-version", bus)
        self.store[anon_id.value] = CastRecord(version, share)
        bus.post(self.name, holder, "cast-accept", anon_id=anon_id.value, version=version)
        return True, "stored"

    def _reject(self, holder, anon_id, version, reason, bus) -> tuple[bool, str]:
        bus.post(
            self.name,
            holder,
            "cast-reject",
            anon_id=anon_id.value,
            version=version,
            reason=reason,
        )
        return False, reason


SignatureVerifier = Callable[[Signature], bool]


def key_verifier(key: SigningKey) -> SignatureVerifier:
    """Direct sheet verification for a tally trusted with the key."""

    def check(signature: Signature) -> bool:
        return verify_with_key(signature, key)

    return check


def relay_verifier(signer_key: PublicKey, responder: Responder, rng: Random) -> SignatureVerifier:
    """Sheet verification through confirmation rounds, same interface."""

    def check(signature: Signature) -> bool:
        return confirm(signature, signer_key, responder, rng).accepted

    return check


def tally(
    servers: Sequence[VoteServer],
    sheet: BallotSheet,
    verifier: SignatureVerifier,
    bus: MessageBus,
) -> TallyResult:
    """Pool every server's stored shares, reconstruct per anonymous id, and
    match products against the signed ballot sheet.

    An id missing a share on any server, or stored under mixed versions,
    counts as inconsistent; a unanimous product matching no signed ballot
    counts as invalid.
    """
    for ballot, signed in zip(sheet.ballots, sheet.signed_ballots):
        if not verifier(Signature(ballot, signed)):
            raise DomainError("ballot sheet signature failed verification")
    for server in servers:
        bus.post(TALLY, server.name, "collect")
        bus.post(server.name, TALLY, "records", count=len(server.store))
    ids = sorted({anon for server in servers for anon in server.store})
    index = sheet.signed_index()
    p = sheet.ballots[0].params.p
    counts = {label: 0 for label in sheet.candidates}
    invalid = 0
    inconsistent = 0
    for anon in ids:
        records = [server.store.get(anon) for server in servers]
        if any(r is None for r in records) or len({r.version for r in records}) != 1:
            inconsistent += 1
            continue
        product = 1
        for record in records:
            product = product * record.share.value % p
        label = index.get(product)
        if label is None:
            invalid += 1
        else:
            counts[label] += 1
    result = TallyResult(counts, invalid, inconsistent, len(ids))
    bus.post(
        TALLY,
        "*",
        "tally-result",
        counts=",".join(f"{label}:{counts[label]}" for label in sheet.candidates),
        invalid=invalid,
        inconsistent=inconsistent,
        distinct_ids=len(ids),
    )
    return result


def make_ballot_sheet(
    candidates: Sequence[str], key: SigningKey, rng: Random
) -> BallotSheet:
    """Distinct public subgroup values, one per candidate, plus signatures."""
    params = key.params
    if len(candidates) > params.q:
        raise ParameterError("more candidates than subgroup elements")
    values: list[FieldElement] = []
    seen: set[int] = set()
    while len(values) < len(candidates):
        ballot = sample_subgroup_element(params, rng)
        if ballot.value not in seen:
            seen.add(ballot.value)
            values.append(ballot)
    signed = tuple(sign(ballot, key).sig for ballot in values)
    return BallotSheet(tuple(candidates), tuple(values), signed)
