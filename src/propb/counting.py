"""Exact edge counts and conservative analytic upper bounds.

Counts are arbitrary-precision integers, never floats.  Bounds involve the
constant e, so they are returned as rational enclosures (BoundValue): the
upper end is safe when a bound is used as a size estimate, the lower end is
the one to compare against when certifying `quantity <= bound`, so a check
can never pass through rounding alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .params import ParameterError, Params, validate_params


def _e_enclosure(terms: int = 40) -> tuple[Fraction, Fraction]:
    # Partial sum of sum(1/n!) plus the tail bound 1/(N!*N); width ~3e-49.
    total = Fraction(0)
    factorial = 1
    for n in range(terms + 1):
        if n:
            factorial *= n
        total += Fraction(1, factorial)
    return total, total + Fraction(1, factorial * terms)


E_LOWER, E_UPPER = _e_enclosure()


@dataclass(frozen=True)
class BoundValue:
    """Rational enclosure lower <= true value <= upper of a real bound."""

    lower: Fraction
    upper: Fraction

    def __float__(self) -> float:
        return float(self.upper)

    def certifies_at_most(self, quantity: int | Fraction) -> bool:
        """True only if `quantity <= true bound` is certain."""
        return quantity <= self.lower


def scientific(value: Fraction) -> str:
    """A positive `value` in `.4e` notation, as printed for a float.

    The float path is kept for byte identity with earlier output: at a
    decimal tie the float's rounding error decides, so 6523/40 prints
    1.6307e+02 where exact rounding half to even gives 1.6308e+02.  Past the
    float range (about 1.8e308) the digits come from exact integer
    arithmetic, rounded half to even, instead of an OverflowError.
    """
    try:
        return f"{float(value):.4e}"
    except OverflowError:
        pass
    # 10^exponent <= whole < 10^(exponent + 1), found without str(whole),
    # which CPython refuses for ints above 4300 digits.
    whole = math.floor(value)
    exponent = math.floor((whole.bit_length() - 1) * math.log10(2))
    while 10**exponent > whole:
        exponent -= 1
    while 10 ** (exponent + 1) <= whole:
        exponent += 1
    digits = round(value / Fraction(10) ** (exponent - 4))
    if digits == 10**5:
        digits, exponent = digits // 10, exponent + 1
    text = str(digits)
    return f"{text[0]}.{text[1:]}e{exponent:+03d}"


def binomial(n: int, r: int) -> int:
    """Exact C(n, r); 0 when r > n."""
    if not isinstance(n, int) or not isinstance(r, int):
        raise ValueError(f"binomial expects integers, got n={n!r}, r={r!r}")
    if n < 0 or r < 0:
        raise ValueError(f"binomial expects nonnegative arguments, got n={n}, r={r}")
    return math.comb(n, r)


def _edge_count(k: int, l: int) -> int:
    block = k // l
    seq_len = (2**l) * block
    return binomial(2 * l - 1, l) * seq_len**l * binomial(seq_len, block)


def edge_count(params: Params) -> int:
    """Exact number of edges, with multiplicity, the full construction emits.

    Equals C(2l-1, l) * seq_len^l * C(seq_len, block_size).
    """
    return _edge_count(params.k, params.l)


def distinct_edge_count(params: Params) -> int:
    """Exact number of distinct edges: C(2l-1, l) * sum over blocks S of period(S)^(l-1).

    A block fixed by the rotation +d, for d dividing seq_len, is a union of
    residue classes mod d: there are C(d, block_size*d/seq_len) of them when
    seq_len divides block_size*d, else none.  Moebius inversion over the
    divisors turns these counts into the number of blocks of each exact period.
    """
    kp, block = params.seq_len, params.block_size
    exact: dict[int, int] = {}
    for d in divisors(kp):
        fixed = binomial(d, block * d // kp) if block * d % kp == 0 else 0
        exact[d] = fixed - sum(n for e, n in exact.items() if d % e == 0)
    periods = sum(n * d ** (params.l - 1) for d, n in exact.items())
    return binomial(params.num_sequences, params.l) * periods


def binomial_upper_bound(n: int, r: int) -> BoundValue:
    """The classical bound (e*n/r)^r >= C(n, r), as a rational enclosure."""
    if not isinstance(n, int) or not isinstance(r, int) or n < 0 or r < 1:
        raise ValueError(f"need integers n >= 0 and r >= 1, got n={n!r}, r={r!r}")
    if r > n:
        raise ValueError(f"need r <= n, got n={n}, r={r}")
    ratio = Fraction(n, r)
    return BoundValue(lower=(E_LOWER * ratio) ** r, upper=(E_UPPER * ratio) ** r)


def edge_count_upper_bound(k: int, l: int) -> BoundValue:
    """Closed-form upper bound 2^(2l+l^2) * k^l * 2^k * e^(k/l) on edge_count."""
    validate_params(k, l)
    scale = 2 ** (2 * l + l * l) * k**l * 2**k
    exponent = k // l
    return BoundValue(lower=scale * E_LOWER**exponent, upper=scale * E_UPPER**exponent)


def divisors(k: int) -> list[int]:
    """Positive divisors of k in ascending order."""
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    large = [k // d for d in reversed(small) if k // d not in small]
    return small + large


def best_l(k: int) -> int:
    """The divisor of k that minimizes the exact edge count; ties go low.

    Exact minimization over the valid l values (asymptotically l near log2 k
    wins, but for small k that is usually l = 1).  Every count is at least
    seq_len^l >= 2^(l*l), so a divisor with l*l at least the bit length of
    the l = 1 count cannot win; it is skipped without computing its count.
    """
    ls = divisors(k)
    limit = _edge_count(k, 1).bit_length()
    return min((l for l in ls if l * l < limit), key=lambda l: _edge_count(k, l))
