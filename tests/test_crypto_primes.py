"""Tests for primality testing and prime generation."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.primes import generate_prime, is_probable_prime, pocklington_accepts

KNOWN_PRIMES = [2, 3, 5, 7, 97, 101, 7919, 104729, 2**31 - 1]
KNOWN_COMPOSITES = [1, 4, 9, 100, 7917, 2**31, 561, 41041, 825265]  # incl. Carmichael


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes_accepted(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites_rejected(n):
    assert not is_probable_prime(n)


def test_negative_and_small():
    assert not is_probable_prime(-7)
    assert not is_probable_prime(0)
    assert not is_probable_prime(1)


def test_large_known_prime():
    # 2^521 - 1 is a Mersenne prime.
    assert is_probable_prime(2**521 - 1)


def test_large_known_composite():
    assert not is_probable_prime((2**127 - 1) * (2**61 - 1))


def test_generate_prime_exact_bits():
    rng = random.Random(0)
    for bits in (16, 64, 256):
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_generate_prime_is_odd():
    rng = random.Random(1)
    assert generate_prime(32, rng) % 2 == 1


def test_generate_prime_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        generate_prime(4, random.Random(0))


def test_generate_prime_deterministic_from_seed():
    assert generate_prime(64, random.Random(5)) == generate_prime(64, random.Random(5))


@given(st.integers(min_value=2, max_value=100000))
@settings(max_examples=200)
def test_matches_trial_division(n):
    def trial(n: int) -> bool:
        if n < 2:
            return False
        for d in range(2, int(n**0.5) + 1):
            if n % d == 0:
                return False
        return True

    assert is_probable_prime(n) == trial(n)


def test_pocklington_never_accepts_a_composite():
    """Every c = 2*t*c0 + 1 below 10**6 with a prime c0, c0**2 > c, under
    several bases: each acceptance is a prime (by a sieve, i.e. exhaustive
    trial division), and every prime is accepted by some base."""
    limit = 10**6
    is_prime = bytearray([1]) * limit
    is_prime[0] = is_prime[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit, p)))
    checked = 0
    for c0 in range(3, limit // 2):
        if not is_prime[c0]:
            continue
        for c in range(2 * c0 + 1, min(limit, c0 * c0), 2 * c0):
            t = (c - 1) // (2 * c0)
            accepted = False
            for a in (2, 3, 5, 7):
                if a < c - 1 and pocklington_accepts(c, c0, t, a):
                    assert is_prime[c], (c, c0, a)
                    accepted = True
            assert accepted or not is_prime[c], (c, c0)
            checked += 1
    assert checked > 300_000


@given(st.integers(min_value=8, max_value=600), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_generate_prime_properties(bits, seed):
    p = generate_prime(bits, random.Random(seed))
    assert p.bit_length() == bits
    assert p >> (bits - 2) == 0b11  # top two bits set
    assert is_probable_prime(p, rounds=40)
    assert generate_prime(bits, random.Random(seed)) == p
