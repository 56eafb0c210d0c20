"""Small prime-sieve helpers used by generators and predicates."""

from __future__ import annotations

import numpy as np


def prime_mask(n: int) -> np.ndarray:
    """Boolean array of length n+1 with mask[k] true iff k is prime."""
    mask = np.ones(max(n + 1, 2), dtype=bool)
    mask[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask[: n + 1]


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending."""
    return np.flatnonzero(prime_mask(n))


def first_primes(count: int) -> list[int]:
    """The first `count` primes."""
    if count <= 0:
        return []
    # p_k < k (ln k + ln ln k) for k >= 6; small counts padded manually
    bound = 15
    if count >= 6:
        k = float(count)
        bound = int(k * (np.log(k) + np.log(np.log(k)))) + 10
    ps = primes_upto(bound)
    while len(ps) < count:
        bound *= 2
        ps = primes_upto(bound)
    return [int(p) for p in ps[:count]]


# Miller-Rabin to the prime bases 2..41 decides primality exactly below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson & Webster,
# Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality of n by deterministic Miller-Rabin; ValueError for n >= _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: need n < {_MR_LIMIT}")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
