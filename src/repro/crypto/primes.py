"""Primality testing (Miller–Rabin) and provable prime generation.

The paper's trapdoor and certificates are RSA-based (512-bit keys in the
evaluation).  No external crypto library is assumed: primality testing and
prime generation are implemented here from first principles.

:func:`generate_prime` builds *proven* primes with the Shawe–Taylor
construction (FIPS 186-4, Appendix C.6): a prime ``c`` of ``L`` bits is
searched along ``c = 2·t·c0 + 1`` for a recursively built prime ``c0``
of ``⌈L/2⌉ + 1`` bits, and each candidate is certified by Pocklington's
criterion — a proof of primality, not a probabilistic bound.
"""

from __future__ import annotations

import math
import random

__all__ = ["is_probable_prime", "generate_prime"]

# Small primes for fast trial division before any modular exponentiation.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

# Deterministic witness sets: testing against these bases is *proven*
# sufficient for all n below the associated bound (Jaeschke; Sorenson &
# Webster), so unit-range primality checks are exact, not probabilistic.
_DETERMINISTIC_WITNESSES = (
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
)

# Primes of at most this many bits lie below 2**61, inside the last
# deterministic witness bound: generate_prime's exact base case.
_BASE_CASE_BITS = 61


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if ``a`` witnesses that ``n`` is composite."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller–Rabin primality test.

    Deterministic (exact) for n below ~3.8e18 via fixed witness sets;
    otherwise probabilistic with error probability at most 4**-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for bound, witnesses in _DETERMINISTIC_WITNESSES:
        if n < bound:
            return not any(_miller_rabin_witness(n, a) for a in witnesses)
    # Witness choice only affects the error bound, never the verdict
    # distribution a caller observes, so a candidate-derived stream is
    # safe — and unlike the global ``random`` stream it keeps the run
    # reproducible and leaves caller streams unperturbed.
    witness_rng = random.Random(n)
    for _ in range(rounds):
        a = witness_rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a):
            return False
    return True


def pocklington_accepts(c: int, c0: int, t: int, a: int) -> bool:
    """Pocklington's criterion for ``c = 2·t·c0 + 1`` with base ``a``.

    Let ``z = a^(2t) mod c``.  If ``z^c0 ≡ 1`` and ``gcd(z − 1, c) = 1``
    then, for every prime ``p | c``, ``a`` has order mod ``p`` dividing
    ``c − 1 = 2t·c0`` but not ``2t``, so the prime ``c0`` divides
    ``p − 1`` and ``p > c0``.  When ``c0`` is prime and ``c0² > c``
    every prime factor of ``c`` exceeds ``√c``: ``c`` is prime.  The
    converse fails only when ``a^(2t) ≡ 1 (mod c)`` for a prime ``c``,
    which a random base hits with probability ``1/c0``.
    """
    z = pow(a, 2 * t, c)
    return pow(z, c0, c) == 1 and math.gcd(z - 1, c) == 1


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random proven prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits — required for predictable RSA key sizes.
    The result is a pure function of ``bits`` and the state of ``rng``.
    """
    if bits < 8:
        raise ValueError("refusing to generate primes under 8 bits")
    top_two = 3 << (bits - 2)
    if bits <= _BASE_CASE_BITS:
        while True:
            candidate = rng.getrandbits(bits) | top_two | 1
            if is_probable_prime(candidate):
                return candidate
    while True:
        c0 = generate_prime((bits + 1) // 2 + 1, rng)
        # c0 >= 2**ceil(bits/2) > sqrt(c) for every c below 2**bits, so
        # Pocklington applies.  Candidates c = 2*t*c0 + 1 with the top two
        # bits set: t_lo <= t <= t_lo + span - 1.
        step = 2 * c0
        t_lo = -(-(top_two - 1) // step)
        span = ((1 << bits) - 2) // step - t_lo + 1
        offset = rng.randrange(span)
        # One full lap of the progression from a random start; a lap
        # without a prime (never seen in practice) draws a fresh c0.
        for i in range(span):
            t = t_lo + (offset + i) % span
            c = step * t + 1
            if math.gcd(c, _SMALL_PRIMORIAL) != 1:  # trial division
                continue
            if pocklington_accepts(c, c0, t, rng.randrange(2, c - 1)):
                return c
