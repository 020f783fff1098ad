"""Small number-theoretic helpers shared by the closed-form routines."""

from __future__ import annotations

import operator
from fractions import Fraction

from .exactla import ConsistencyError


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


def jordan2(n):
    """Jordan's totient J_2(n) = n^2 prod over p | n of (1 - p^-2), the
    number of elements of order n in (Z/n)^2, for n >= 1."""
    result = n * n
    for p in prime_factors(n):
        result = exact_quotient(result, p * p, "J_2(%d) at p = %d is not an "
                                "integer: %s", n, p) * (p * p - 1)
    return result


def exact_quotient(num, den, message, *args):
    """num // den when den divides num; otherwise ConsistencyError(message %
    (args + (num/den as a Fraction,)))."""
    if num % den:
        raise ConsistencyError(message % (args + (Fraction(num, den),)))
    return num // den


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
