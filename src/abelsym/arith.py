"""Small number-theoretic helpers shared by the closed-form routines."""

from __future__ import annotations

import operator


def as_int(value, message, *args):
    """`operator.index(value)`, so ints and int-likes such as numpy ints;
    anything else, 2.0 included, raises ValueError(message % args)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(message % args) from None


def prime_factors(n):
    """Sorted distinct prime factors of n >= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def totient(n):
    """Euler's phi function."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def divisors(n):
    """Sorted divisors of n >= 1."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
