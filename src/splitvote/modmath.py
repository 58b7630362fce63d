"""Modular arithmetic over a safe-prime field and its prime-order subgroup.

Every protocol value lives in Z_p* for a safe prime p = 2q + 1.  Signed
material is kept inside the order-q subgroup of quadratic residues, where
exponents are taken mod a prime and every nonzero element is invertible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from random import Random

from .errors import DomainError, NoInverseError, ParameterError

MIN_PRIME = 23
# The largest bit length a field may be generated at: 8192, the size of RFC
# 3526's largest MODP group.  Far above it ``getrandbits`` overflows a C int.
MAX_FIELD_BITS = 8192
# At most a million voters, as a 10 000-voter 32-bit run peaks at ~72 MB,
# ~5 KB a voter, and 1000 servers, as a cast posts about 4k messages for k.
MAX_VOTERS = 10**6
MAX_SERVERS = 1000
# At most 100 000 candidates: each adds two powers to every registration
# and ~32 bytes to every voter's register-grant and confirm-batch lines; a
# 10-voter 32-bit run with 10 000 candidates peaks at 33 MB.
MAX_CANDIDATES = 10**5
# A sheet of m candidates gets its 2m tables only if they fit in 64 MiB: 4
# keep theirs at 2048 bits (~53 MB), and 200 at 256 bits peaked at 97 MB in
# a 10-voter run.  Above it a registration makes two plain powers a
# candidate: 1000 at 256 bits peaked at 26 MB in 3.7 s, 408 MB with tables.
MAX_SHEET_TABLE_BYTES = 64 << 20
MILLER_RABIN_ROUNDS = 64

# Digit width of fixed-base tables: one row of 2**6 powers per 6-bit digit of
# an exponent below q.  At 256 bits that is 43 rows, about 0.2 MB per table;
# at 2048 bits 342 rows, about 6.7 MB.  Wider digits trade table size and
# build time for fewer multiplications per power.
FIXED_BASE_WINDOW = 6

_TRIAL_DIVISION_BOUND = 10**6


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            flags[n * n :: n] = bytearray(len(flags[n * n :: n]))
    return [n for n in range(limit) if flags[n]]


_SMALL_PRIMES = _sieve(1000)
# one gcd against this product finds any odd prime factor below 1000
_ODD_PRIMORIAL = math.prod(_SMALL_PRIMES[1:])


def _residue_table(primes: tuple[int, ...]) -> bytearray:
    """A byte per residue r mod the product of odd ``primes``, set when one
    of them, l, divides r or 2r + 1: r = 0 or (l - 1)/2 mod l."""
    table = bytearray(math.prod(primes))
    for prime in primes:
        for start in (0, prime // 2):
            table[start::prime] = b"\1" * len(table[start::prime])
    return table


# the sieve's eleven least primes as three lookups, ~56 KB in all
_T1, _T2, _T3 = map(_residue_table, ((3, 5, 7, 11, 13), (17, 19, 23), (29, 31, 37)))


def is_probable_prime(n: int) -> bool:
    """Primality test: exact below 10**6, Miller-Rabin above.

    Witnesses are the first ``MILLER_RABIN_ROUNDS`` small primes, so
    verdicts are reproducible across runs.
    """
    if n < 2:
        return False
    for w in _SMALL_PRIMES:
        if n == w:
            return True
        if n % w == 0:
            return False
    if n < _TRIAL_DIVISION_BOUND:
        # no prime factor <= sqrt(n) < 1000 was found, so n is prime
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:MILLER_RABIN_ROUNDS]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _safe_prime_proved(p: int) -> bool:
    """Primality of p = 2q + 1, exact once q is known to be prime.

    Pocklington's criterion with F = q > sqrt(p) - 1 and witness 2: p is
    prime iff 2**(p-1) = 1 (mod p) and gcd(2**2 - 1, p) = 1, i.e. 3 does not
    divide p.  Every prime p > 3 passes, so this agrees with 64 rounds.
    """
    return p % 3 != 0 and pow(2, p - 1, p) == 1


@dataclass(frozen=True)
class FieldParams:
    """Safe prime p = 2q + 1 and a generator g of the order-q subgroup.

    q gets 64 Miller-Rabin rounds, then p is proved prime by Pocklington's
    criterion and g checked by its Jacobi symbol (Euler's criterion for
    prime p): the verdicts of 64 rounds on p and of g**q = 1, for less.
    """

    p: int
    q: int
    g: int

    def __post_init__(self):
        if self.p < MIN_PRIME:
            raise ParameterError(f"p must be at least {MIN_PRIME}, got {self.p}")
        if self.p != 2 * self.q + 1:
            raise ParameterError("p must equal 2q + 1")
        if not is_probable_prime(self.q):
            raise ParameterError(f"q = {self.q} is not prime")
        if not _safe_prime_proved(self.p):
            raise ParameterError(f"p = {self.p} is not prime")
        if not 1 < self.g < self.p or _jacobi(self.g, self.p) != 1:
            raise ParameterError(f"g = {self.g} does not generate the order-q subgroup")

    @classmethod
    def _proved(cls, p: int, q: int, g: int) -> FieldParams:
        """A field its caller has just checked in full: no check runs again."""
        params = object.__new__(cls)
        params.__dict__.update(p=p, q=q, g=g)
        return params

    @cached_property
    def g_table(self) -> FixedBase:
        """Fixed-base table for powers of g, built on first use."""
        return FixedBase(self.g, self)


def mod_exp(base: int, exponent: int, params: FieldParams) -> int:
    """base**exponent mod p by the built-in three-argument ``pow``.

    This is the path for bases that change from call to call; powers of g
    and of a public key go through their ``FixedBase`` tables.
    """
    if exponent < 0:
        raise ParameterError("exponent must be non-negative")
    return pow(base, exponent, params.p)


def mod_inv(a: int, params: FieldParams) -> int:
    if a % params.p == 0:
        raise NoInverseError("0 has no inverse mod p")
    return pow(a, -1, params.p)


def require_unit(value: int, params: FieldParams, what: str) -> int:
    """``value`` if it lies in [1, p-1]; a ``DomainError`` naming it if not."""
    if not 0 < value < params.p:
        raise DomainError(f"{what} must lie in [1, p-1], got {value}")
    return value


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0 and 0 <= a < n, by reciprocity."""
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def in_subgroup(a: int, params: FieldParams) -> bool:
    """True iff a is a quadratic residue in [1, p-1], i.e. a**q = 1.

    Decided by the Jacobi symbol: p is prime, so (a/p) is the Legendre
    symbol, which equals a**q = a**((p-1)/2) mod p by Euler's criterion.
    The verdict is that of the exponentiation, at a fraction of its cost.
    An int outside [1, p-1] is refused, even one congruent to a residue:
    its powers equal those of the residue, so it would pass as a second
    name for a signed value.
    """
    return 0 < a < params.p and _jacobi(a, params.p) == 1


class FixedBase:
    """Powers of one subgroup element from a precomputed table.

    Brickell, Gordon, McCurley and Wilson, "Fast exponentiation with
    precomputation" (EUROCRYPT '92): row i holds base**(d * 2**(w*i)) for
    every w-bit digit d, so base**e costs one multiplication per digit of e
    and no squarings.  The exponent is reduced mod q first, which is exact
    because the order of every subgroup element divides q.
    """

    def __init__(self, base: int, params: FieldParams):
        if not in_subgroup(base, params):
            raise ParameterError("a fixed-base table needs a subgroup element")
        p = params.p
        self.params = params
        self._rows: list[list[int]] = []
        step = base
        for _ in range(-(-self.params.q.bit_length() // FIXED_BASE_WINDOW)):
            row = [1]
            for _ in range((1 << FIXED_BASE_WINDOW) - 1):
                row.append(row[-1] * step % p)
            self._rows.append(row)
            step = row[-1] * step % p

    def power(self, exponent: int) -> int:
        """base**exponent mod p; the same value ``mod_exp`` returns."""
        if exponent < 0:
            raise ParameterError("exponent must be non-negative")
        p = self.params.p
        mask = (1 << FIXED_BASE_WINDOW) - 1
        e = exponent % self.params.q
        acc = 1
        for row in self._rows:
            acc = acc * row[e & mask] % p
            e >>= FIXED_BASE_WINDOW
        return acc


def table_bytes(params: FieldParams) -> int:
    """About the memory of one ``FixedBase``: 2**w ints per w-bit digit of q."""
    rows = -(-params.q.bit_length() // FIXED_BASE_WINDOW)
    return (rows << FIXED_BASE_WINDOW) * sys.getsizeof(params.p)


def sample_subgroup_element(params: FieldParams, rng: Random) -> int:
    """Uniform subgroup sample: square a uniform element of [1, p-1].

    The result is never 0 and never p - 1 (a non-residue).
    """
    u = rng.randrange(1, params.p)
    return u * u % params.p


def generate_params(bit_length: int, rng: Random) -> FieldParams:
    """Fresh safe-prime field of exactly ``bit_length`` bits.

    Draws q until both q and 2q + 1 are prime, then picks a random square
    other than 1 as subgroup generator.  Deterministic for a fixed rng seed.

    Almost every candidate is composite, so rejection is made cheap, after
    M. Wiener, "Safe prime generation with a combined sieve" (IACR ePrint
    2003/186).  A joint sieve drops q when q or p = 2q + 1 has an odd prime
    factor below 1000; it runs only once q exceeds every sieve prime, so a
    small prime q or p is never dropped for being its own factor.  Residue
    tables mod 3*5*7*11*13, 17*19*23 and 29*31*37 give the verdict of its 11
    least primes, which drop ~94% of candidates, for three remainders; a gcd
    with the product of the odd primes below 1000 judges the rest.  A base-2
    Fermat round on q and then on p drops almost all that pass.  The
    survivor gets the full Miller-Rabin test on q, and p is proved prime by
    Pocklington's criterion, whose base-2 condition is the round p already
    passed.  Each step rejects only candidates the plain test would reject:
    a composite that fails base-2 Fermat also fails Miller-Rabin with
    witness 2, and the proof agrees with Miller-Rabin on every p once q is
    prime.  The sequence of draws, and so the (p, q, g) of every seed, is
    that of testing both q and p with 64 rounds.  g is a square other than
    1, so the field passes every check of ``FieldParams`` without a rerun.
    """
    if bit_length < 5:
        raise ParameterError("bit_length must be at least 5 (p >= 23)")
    if bit_length > MAX_FIELD_BITS:
        raise ParameterError(f"bit_length must be at most {MAX_FIELD_BITS}")
    while True:
        q = rng.getrandbits(bit_length - 1)
        q |= (1 << (bit_length - 2)) | 1
        p = 2 * q + 1
        if p < MIN_PRIME:
            continue
        if q > _SMALL_PRIMES[-1] and (
            _T1[q % len(_T1)] or _T2[q % len(_T2)] or _T3[q % len(_T3)]
            or math.gcd(q * p, _ODD_PRIMORIAL) != 1
        ):
            continue
        if pow(2, q - 1, q) != 1 or not _safe_prime_proved(p) or not is_probable_prime(q):
            continue
        while True:
            u = rng.randrange(2, p - 1)
            g = u * u % p
            if g != 1:
                break
        return FieldParams._proved(p, q, g)


FIXTURE_FIELD = FieldParams(p=23, q=11, g=2)
