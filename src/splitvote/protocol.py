"""The election protocol as in-process actors on a deterministic message bus.

Four phases: the registration authority signs each voter's blinded anonymous
id and hands out a sheet of signed ballot values, until it closes
registration; the polling booth checks credentials (with a key copy or by
relaying confirmation rounds to the authority) and issues session tokens;
voters split their chosen signed ballot into one multiplicative share per
vote server; the tally checks the sheet's signatures, pools the shares back
together, reconstructs, and matches products against the sheet.

Re-voting is overwrite-based: a later cast carries a higher version number
and replaces the stored shares, and authenticating again kills the previous
session token.  Every cross-actor effect travels as a message appended to
the bus in program order, so a fixed seed replays the identical log.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .blindsig import (
    PublishedSignature,
    Responder,
    Signature,
    SigningKey,
    SquareSignature,
    _blind_member,
    confirm,
    confirm_batch,
    disavow,
    honest_responder,
    sign,
    unblind,
    verify_with_key,
)
from .errors import DomainError, ParameterError, VotingError
from .modmath import MAX_SHEET_TABLE_BYTES, FieldParams, sample_subgroup_element, table_bytes
from .sharing import complete_split, free_shares, reconstruct

KEY_COPY = "key-copy"
ZK_RELAY = "zk-relay"
BOOTH_MODES = (KEY_COPY, ZK_RELAY)
TALLY = "tally"


class IneligibleVoterError(VotingError):
    """The presented identity is not on the roster."""


class AlreadyRegisteredError(VotingError):
    """The identity was registered before."""


class RegistrationClosedError(VotingError):
    """Registration has closed."""


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


class MessageBus:
    """Append-only ordered log; delivery is synchronous, so the order is the
    program order and identical across runs with the same seed.  Each
    message is kept as its rendered line,
    ``<seq:06d> <sender> -> <recipient> <kind> key=value ...``; the caller
    renders the ``key=value ...`` body with one f-string, which fixes the
    field order at the call site.  The bus alone numbers lines, and alone
    frames the log as a file holds it: one newline-ended line per message,
    the bytes that ``write`` writes and ``sha256`` hashes."""

    def __init__(self):
        self._lines: list[str] = []

    def __len__(self) -> int:
        return len(self._lines)

    def post(self, sender: str, recipient: str, kind: str, body: str = "") -> None:
        head = f"{len(self._lines) + 1:06d} {sender} -> {recipient} {kind}"
        self._lines.append(f"{head} {body}" if body else head)

    def extend(self, lines: Sequence[str]) -> None:
        """Append another bus's rendered lines, numbering them on from here."""
        n = len(self._lines)
        self._lines += [f"{n + j:06d} {line.partition(' ')[2]}" for j, line in enumerate(lines, 1)]

    def render_log(self) -> list[str]:
        return list(self._lines)

    def _framed(self) -> Iterator[str]:
        # 4096 lines a piece: fewer calls than one per line, and no copy of
        # the whole log as one string
        for start in range(0, len(self._lines), 4096):
            yield "\n".join([*self._lines[start : start + 4096], ""])

    def write(self, file: TextIO) -> None:
        file.writelines(self._framed())

    def sha256(self) -> str:
        """sha256 of the bytes ``write`` writes, in UTF-8."""
        digest = hashlib.sha256()
        for piece in self._framed():
            digest.update(piece.encode("utf-8"))
        return digest.hexdigest()


def label_fits(label: str) -> bool:
    """Whether a label is nonempty with no whitespace, ':', '=', ',' or '#',
    so that reports printing ``count <label> = n`` and ``counts=<label>:n``,
    and the echoed ``candidates = <label>,...`` config line, parse back."""
    return bool(label) and not any(ch.isspace() or ch in ":=,#" for ch in label)


def candidate_problems(labels: Sequence[str]) -> list[str]:
    """What keeps ``labels`` from naming a ballot sheet's candidates; empty
    when nothing does."""
    problems = []
    if len(labels) < 2:
        problems.append("need at least two")
    if "" in labels:
        problems.append("empty label")
    unfit = [label for label in labels if label and not label_fits(label)]
    if unfit:
        problems.append(f"label {unfit[0]!r} holds whitespace, ':', '=', ',' or '#'")
    if len(set(labels)) != len(labels):
        problems.append("duplicate label")
    return problems


@dataclass(frozen=True)
class BallotSheet:
    """Public ballot values, one per candidate, plus their signatures.

    ``signatures`` pairs them up once per sheet as plain ``Signature``s, so
    the subgroup verdicts of its elements serve every check of it.  The
    registration authority's view of them holds their fixed-base tables.
    """

    candidates: tuple[str, ...]
    ballots: tuple[int, ...]
    signed_ballots: tuple[int, ...]
    params: FieldParams

    def __post_init__(self):
        problems = candidate_problems(self.candidates)
        if problems:
            raise ParameterError("candidates: " + "; ".join(problems))
        if not (len(self.candidates) == len(self.ballots) == len(self.signed_ballots)):
            raise ParameterError("candidates, ballots and signatures must line up")
        if len(set(self.ballots)) != len(self.ballots):
            raise ParameterError("ballot values must be distinct")
        if not all(signature.message_in_subgroup for signature in self.signatures):
            raise DomainError("ballot values must lie in the subgroup")
        if len(set(self.signed_ballots)) != len(self.signed_ballots):
            raise ParameterError("signed ballot values must be distinct")

    @cached_property
    def signatures(self) -> tuple[Signature, ...]:
        pairs = zip(self.ballots, self.signed_ballots)
        return tuple(Signature(m, sig, self.params) for m, sig in pairs)

    @cached_property
    def published(self) -> str:
        """The sheet's value lists as a ``register-grant`` carries them."""
        ballots = ",".join(map(str, self.ballots))
        signed = ",".join(map(str, self.signed_ballots))
        return f"ballots={ballots} signed_ballots={signed}"

    def signed_index(self) -> dict[int, str]:
        return dict(zip(self.signed_ballots, self.candidates))


@dataclass(frozen=True)
class CastAck:
    """What the voter learns from one cast: whether each server it reached
    stored its share, in server order."""

    version: int
    shares: tuple[int, ...]
    accepted: tuple[bool, ...]


@dataclass
class TallyResult:
    """Counts per label, in sheet order, which every rendering follows."""

    counts: dict[str, int]
    invalid: int
    inconsistent: int
    distinct_ids: int

    def render_lines(self) -> list[str]:
        lines = [f"count {label} = {n}" for label, n in self.counts.items()]
        lines.append(f"invalid = {self.invalid}")
        lines.append(f"inconsistent = {self.inconsistent}")
        lines.append(f"distinct_ids = {self.distinct_ids}")
        return lines


def _transcript_body(t) -> str:
    return (
        f"e1={t.e1} e2={t.e2} challenge={t.challenge} response={t.response} "
        f"accepted={1 if t.accepted else 0}"
    )


class RegistrationAuthority:
    """Checks eligibility, signs blinded anonymous ids, and publishes the
    signed ballot sheet until ``close``.  ``signatures``, handed out with
    each grant, is the sheet's pairs as registrants confirm them: table
    backed while two tables a candidate fit in ``MAX_SHEET_TABLE_BYTES``,
    plain above it.  The table-backed view holds the sheet pairs' subgroup
    verdicts, computed here, before set-up forks, and shared with the tally.
    ``close`` drops it, tables and all."""

    name = "ra"

    def __init__(self, key: SigningKey, roster: Iterable[str], sheet: BallotSheet):
        self.key = key
        self.roster = set(roster)
        self.sheet = sheet
        self.registered: set[str] = set()
        self.signatures: tuple[Signature, ...] | None = sheet.signatures
        if 2 * len(sheet.ballots) * table_bytes(sheet.params) <= MAX_SHEET_TABLE_BYTES:
            self.signatures = tuple(map(PublishedSignature.of, sheet.signatures))

    @property
    def responder(self) -> Responder:
        return honest_responder(self.key)

    def register(self, v_id: str, blinded: int, bus: MessageBus):
        """Sign a blinded anonymous id for an eligible, fresh registrant.

        The authority is sent message * g**b, not the id, yet it can compute
        the id from the registrant's ``confirm-batch`` line (ROADMAP item 2,
        ``TestUnlinkability``).  A value ``sign`` refuses leaves the
        registrant unregistered, and once closed the authority refuses all.
        """
        if self.signatures is None:
            bus.post(self.name, f"voter/{v_id}", "register-reject", "reason=closed")
            raise RegistrationClosedError("registration is closed")
        if v_id not in self.roster:
            bus.post(self.name, f"voter/{v_id}", "register-reject", "reason=ineligible")
            raise IneligibleVoterError(f"{v_id} is not on the roster")
        if v_id in self.registered:
            bus.post(self.name, f"voter/{v_id}", "register-reject", "reason=already-registered")
            raise AlreadyRegisteredError(f"{v_id} already registered")
        try:
            signed_blinded = sign(blinded, self.key).sig
        except DomainError:
            bus.post(self.name, f"voter/{v_id}", "register-reject", "reason=malformed-blinded")
            raise
        self.registered.add(v_id)
        bus.post(
            self.name,
            f"voter/{v_id}",
            "register-grant",
            f"signed_blinded={signed_blinded} {self.sheet.published}",
        )
        return signed_blinded, self.sheet, self.signatures

    def close(self) -> None:
        """Close registration and free the sheet's tables; posts nothing."""
        self.signatures = None


class Voter:
    """A registered voter: the anonymous credential, the ballot sheet it
    confirmed, and the unspent free shares of its casts to come.  The true
    identity stays behind in ``register``, which builds one."""

    def __init__(self, credential: Signature, sheet: BallotSheet, free: Iterable[int]):
        self.credential = credential
        self.sheet = sheet
        self.free = list(free)
        self.version = 0

    @classmethod
    def register(
        cls,
        v_id: str,
        authority: RegistrationAuthority,
        bus: MessageBus,
        rng: Random,
        n_free: int,
    ) -> Voter:
        """Blind a fresh anonymous id, have it signed, unblind, and confirm
        the credential and the ballot sheet in one batched round; a refused
        batch falls back to a round for the credential, then one per ballot,
        which disavows the first bad one.  The sheet's pairs come with the
        grant; a closed authority raises ``RegistrationClosedError``.  Id 1
        is redrawn: the booth refuses it, since it is its own signature under
        every key.  The id is a square, so no step tests it: the credential
        is a ``SquareSignature``, the batch tests only its signature half, and
        the booth reuses that verdict.  Last come the ``n_free`` free shares
        of the casts to come; the voter keeps no ``rng``."""
        authority_key = authority.key.public_key()
        params = authority_key.params
        name = f"voter/{v_id}"
        anon_id = sample_subgroup_element(params, rng)
        while anon_id == 1:
            anon_id = sample_subgroup_element(params, rng)
        factor = rng.randrange(1, params.q)
        blinded = _blind_member(anon_id, factor, authority_key)
        bus.post(name, authority.name, "register-request", f"v_id={v_id} blinded={blinded}")
        signed_blinded, sheet, signatures = authority.register(v_id, blinded, bus)
        signed = unblind(signed_blinded, factor, authority_key)
        credential = SquareSignature(anon_id, signed, params)
        batch = confirm_batch((credential, *signatures), authority_key, authority.responder, rng)
        body = f"weights={','.join(map(str, batch.weights))} {_transcript_body(batch)}"
        bus.post(name, authority.name, "confirm-batch", body)
        if not batch.accepted:
            _confirm_or_disavow(credential, name, "confirm-credential", authority, bus, rng, "")
            for label, signature in zip(sheet.candidates, signatures):
                lead = f"candidate={label} "
                _confirm_or_disavow(signature, name, "confirm-ballot", authority, bus, rng, lead)
        return cls(credential, sheet, free_shares(n_free, params, rng))

    def cast(
        self,
        token: str,
        servers: Sequence[VoteServer],
        candidate_index: int,
        bus: MessageBus,
        deliver_count: int,
    ) -> CastAck:
        """Split the chosen signed ballot and deliver one share per server.

        ``complete_split`` adds the last share to the next k - 1 free ones,
        which the cast spends; a refused cast spends none.  Delivery stops
        after ``deliver_count`` servers, k for a whole cast and fewer for an
        interrupted one.  Every attempt, complete or not, bumps this
        credential's version.
        """
        if not 0 <= candidate_index < len(self.sheet.candidates):
            raise ParameterError(f"candidate index {candidate_index} out of range")
        k = len(servers)
        if not 1 <= deliver_count <= k:
            raise ParameterError("deliver_count must lie in [1, k]")
        if k < 2 or len(self.free) < k - 1:
            raise ParameterError("a cast needs at least 2 servers and k - 1 free shares")
        shares = complete_split(
            self.sheet.signed_ballots[candidate_index], self.free[: k - 1], self.sheet.params
        )
        del self.free[: k - 1]
        self.version += 1
        anon_id = self.credential.message
        holder = f"holder/{anon_id}"
        accepted = []
        for server, share in zip(servers[:deliver_count], shares):
            bus.post(
                holder,
                server.name,
                "cast-share",
                f"anon_id={anon_id} version={self.version} share={share} token={token}",
            )
            accepted.append(server.store_share(anon_id, self.version, share, token, bus)[0])
        return CastAck(self.version, shares, tuple(accepted))


def _confirm_or_disavow(signature, sender, kind, authority, bus, rng, lead):
    authority_key = authority.key.public_key()
    transcript = confirm(signature, authority_key, authority.responder, rng)
    bus.post(sender, authority.name, kind, lead + _transcript_body(transcript))
    if not transcript.accepted:
        verdict = disavow(signature, authority_key, authority.responder, rng)
        forgery = 1 if verdict.is_forgery else 0
        bus.post(sender, authority.name, "disavow", f"forgery={forgery}")
        raise CredentialInvalidError("authority signature failed confirmation", verdict)


class PollingBooth:
    """Validates credentials and issues the session tokens servers check.

    ``key-copy`` booths hold a copy of the authority's signing key and verify
    directly; ``zk-relay`` booths hold no key and run a confirmation round
    against the authority, which can compute the voting id from its
    ``auth-zk`` line (ROADMAP item 2, ``TestUnlinkability``).  ``sessions``
    maps each anonymous id to the signature it first authenticated with and
    its one live session token.
    """

    name = "booth"

    def __init__(self, mode: str, rng: Random, authority: RegistrationAuthority):
        if mode not in BOOTH_MODES:
            raise ParameterError(f"unknown booth mode {mode!r}")
        self.mode = mode
        self.rng = rng
        self.key = authority.key if mode == KEY_COPY else None
        self.authority = authority
        self.sessions: dict[int, tuple[int, str]] = {}
        self.clock = 0
        self.closed = False

    def authenticate(self, credential: Signature, bus: MessageBus) -> str:
        """Issue a 32-hex session token for a valid credential, the anonymous id
        and the authority's signature on it.

        Re-authenticating with the same credential is the re-vote path: the
        previous token dies, and the signature its first grant verified is
        not verified again.  A key admits one signature per id, so any other
        signature on a known id fails verification.  The credential's
        cached subgroup verdicts are reused, so a voter showing the object
        that registration confirmed costs no subgroup test here.
        """
        anon_id, signature = credential.message, credential.sig
        holder = f"holder/{anon_id}"
        bus.post(holder, self.name, "auth-request", f"anon_id={anon_id} signature={signature}")
        if self.closed:
            bus.post(self.name, holder, "auth-reject", "reason=closed")
            raise AuthenticationError("polling is closed")
        # sign() never issues a signature on 0, but 0**x = 0 would pass the
        # direct key check, so malformed ids are cut off before either mode;
        # a zk-relay confirm reuses the credential's verdict
        if not credential.message_in_subgroup:
            bus.post(self.name, holder, "auth-reject", "reason=malformed-id")
            raise AuthenticationError("anonymous id must lie in the subgroup")
        # 1**x = 1, so (1, 1) verifies under every key without registration
        if anon_id == 1:
            bus.post(self.name, holder, "auth-reject", "reason=degenerate-id")
            raise AuthenticationError("anonymous id 1 is signed by every key")
        session = self.sessions.get(anon_id)
        if session is None or session[0] != signature:
            if self.mode == KEY_COPY:
                valid = verify_with_key(credential, self.key)
            else:
                ra = self.authority
                transcript = confirm(credential, ra.key.public_key(), ra.responder, self.rng)
                bus.post(self.name, ra.name, "auth-zk", _transcript_body(transcript))
                valid = transcript.accepted
            if not valid:
                bus.post(self.name, holder, "auth-reject", "reason=invalid-signature")
                raise AuthenticationError("credential signature does not verify")
        self.clock += 1
        token = f"{self.rng.getrandbits(128):032x}"
        self.sessions[anon_id] = (signature, token)
        bus.post(self.name, holder, "auth-grant", f"token={token} issued_at={self.clock}")
        return token

    def token_valid(self, token: str, anon_id: int) -> bool:
        session = self.sessions.get(anon_id)
        return not self.closed and session is not None and session[1] == token

    def close(self, bus: MessageBus) -> None:
        self.closed = True
        bus.post(self.name, "*", "close")


class VoteServer:
    """Stores one ``(version, share)`` pair per anonymous id, accepted
    under the id's live session token; strictly newer versions overwrite."""

    def __init__(self, index: int, booth: PollingBooth):
        self.name = f"server/{index}"
        self.booth = booth
        self.p = booth.authority.key.params.p
        self.store: dict[int, tuple[int, int]] = {}

    def store_share(
        self,
        anon_id: int,
        version: int,
        share: int,
        token: str,
        bus: MessageBus,
    ) -> tuple[bool, str]:
        """Store a share under a live token, or refuse it: ``unknown-token``,
        ``zero-share``, ``share-out-of-range`` (any other share outside
        [1, p - 1]) or ``stale-version``."""
        holder = f"holder/{anon_id}"
        booth = self.booth
        bus.post(self.name, booth.name, "token-check", f"token={token} anon_id={anon_id}")
        ok = booth.token_valid(token, anon_id)
        bus.post(booth.name, self.name, "token-ok" if ok else "token-bad", f"token={token}")
        if not ok:
            return self._reject(holder, anon_id, version, "unknown-token", bus)
        if not 0 < share < self.p:
            reason = "zero-share" if share == 0 else "share-out-of-range"
            return self._reject(holder, anon_id, version, reason, bus)
        existing = self.store.get(anon_id)
        if existing is not None and version <= existing[0]:
            return self._reject(holder, anon_id, version, "stale-version", bus)
        self.store[anon_id] = (version, share)
        bus.post(self.name, holder, "cast-accept", f"anon_id={anon_id} version={version}")
        return True, "stored"

    def _reject(self, holder, anon_id, version, reason, bus) -> tuple[bool, str]:
        bus.post(
            self.name, holder, "cast-reject", f"anon_id={anon_id} version={version} reason={reason}"
        )
        return False, reason


def tally(
    servers: Sequence[VoteServer],
    sheet: BallotSheet,
    verify: Callable[[Sequence[Signature]], bool],
    bus: MessageBus,
) -> TallyResult:
    """Check the sheet's signatures with one call of ``verify``, pool
    every server's stored shares, reconstruct per anonymous id, and match
    products against the signed ballot sheet.

    An id missing a share on any server, or stored under mixed versions,
    counts as inconsistent; a unanimous product matching no signed ballot
    counts as invalid.
    """
    if not verify(sheet.signatures):
        raise DomainError("ballot sheet signature failed verification")
    for server in servers:
        bus.post(TALLY, server.name, "collect")
        bus.post(server.name, TALLY, "records", f"count={len(server.store)}")
    ids = sorted({anon for server in servers for anon in server.store})
    index = sheet.signed_index()
    counts = {label: 0 for label in sheet.candidates}
    invalid = 0
    inconsistent = 0
    for anon in ids:
        records = [server.store.get(anon) for server in servers]
        if any(r is None for r in records) or len({r[0] for r in records}) != 1:
            inconsistent += 1
            continue
        label = index.get(reconstruct([share for _, share in records], sheet.params))
        if label is None:
            invalid += 1
        else:
            counts[label] += 1
    result = TallyResult(counts, invalid, inconsistent, len(ids))
    tallied = ",".join(f"{label}:{n}" for label, n in counts.items())
    bus.post(
        TALLY,
        "*",
        "tally-result",
        f"counts={tallied} invalid={invalid} inconsistent={inconsistent} distinct_ids={len(ids)}",
    )
    return result


def make_ballot_sheet(
    candidates: Sequence[str], key: SigningKey, rng: Random
) -> BallotSheet:
    """Distinct public subgroup values, one per candidate, plus signatures."""
    params = key.params
    if len(candidates) > params.q:
        raise ParameterError("more candidates than subgroup elements")
    values: list[int] = []
    while len(values) < len(candidates):
        ballot = sample_subgroup_element(params, rng)
        if ballot not in values:
            values.append(ballot)
    signed = tuple(sign(ballot, key).sig for ballot in values)
    return BallotSheet(tuple(candidates), tuple(values), signed, params)
