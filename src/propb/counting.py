"""Exact edge counts, their bit lengths, the rulings on their size and conservative analytic upper bounds.

Counts are arbitrary-precision integers, never floats; count_bits tells
their bit length from a float bracket first, and params.printable states a
number too long to print by its bit count.  best_l picks the divisor l of k
(divisors factors k) of least count, and computes only the counts that the
entropy bracket, widened just past the float error, leaves in the race.
This module alone rules on a count's size, from (k, l), and words the
refusal: check_edge_cap refuses a construction past the edge cap
(EdgeCapError), count_refusal a count of more than COUNT_MAX_BITS bits,
which count and bound do not print.  Bounds involve the constant e, so they
are returned as rational enclosures (BoundValue): the upper end is safe when
a bound is used as a size estimate, the lower end is the one to compare
against when certifying `quantity <= bound`, so a check can never pass
through rounding alone.  e itself is enclosed by e_enclosure(), computed on
its first call, the only place that imports fractions.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .params import ParameterError, Params, printable, validate_params

if TYPE_CHECKING:
    from fractions import Fraction


@functools.cache
def e_enclosure() -> tuple[Fraction, Fraction]:
    """Fractions lower < e < upper: sum(1/n!) to n = 40, plus the tail bound 1/(40!*40); width ~3e-49."""
    from fractions import Fraction

    total = sum(Fraction(1, math.factorial(n)) for n in range(41))
    return total, total + Fraction(1, math.factorial(40) * 40)


# The largest exact count printed in full.  Decimal conversion takes quadratic
# time, and CPython refuses ints above 4300 digits (about 14,284 bits) by
# default; a limit in bits keeps the output the same on every Python version.
COUNT_MAX_BITS = 14_000
DEFAULT_EDGE_CAP = 10_000_000


class EdgeCapError(RuntimeError):
    """Refused to build: the edge count, ruled on from (k, l) alone, would exceed the edge cap."""


class BoundValue(NamedTuple):
    """Rational enclosure lower <= true value <= upper of a real bound."""

    lower: Fraction
    upper: Fraction

    def certifies_at_most(self, quantity: int | Fraction) -> bool:
        """True only if `quantity <= true bound` is certain."""
        return quantity <= self.lower


def scientific(value: Fraction) -> str:
    """A positive `value` in `.4e` notation, as printed for a float.

    The float path is kept for byte identity with earlier output: at a
    decimal tie the float's rounding error decides, so 6523/40 prints
    1.6307e+02 where exact rounding half to even gives 1.6308e+02.  Past the
    float range (about 1.8e308) integers round half to even.  The exponent
    comes from log10, whose float error can misplace only a value within
    10^-6 of a power of ten, and such a value rounds to it either way.
    """
    try:
        return f"{float(value):.4e}"
    except OverflowError:
        exponent = math.floor(math.log10(value.numerator) - math.log10(value.denominator))
        divisor = value.denominator * 10 ** (exponent - 4)  # exponent >= 308
        digits, rest = divmod(value.numerator, divisor)
        digits += 2 * rest > divisor or (2 * rest == divisor and digits % 2)  # half to even
        if digits == 10**5:  # 9.99995e+N rounds up to 1.0000e+(N+1)
            digits, exponent = 10**4, exponent + 1
        return f"{digits // 10**4}.{digits % 10**4:04d}e{exponent:+03d}"


def edge_count(params: Params) -> int:
    """Exact number of edges, with multiplicity, the full construction emits.

    Equals C(2l-1, l) * seq_len^l * C(seq_len, block_size).
    """
    kp = params.seq_len
    return math.comb(params.num_sequences, params.l) * kp**params.l * math.comb(kp, params.block_size)


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
        fixed = math.comb(d, block * d // kp) if block * d % kp == 0 else 0
        exact[d] = fixed - sum(n for e, n in exact.items() if d % e == 0)
    periods = sum(n * d ** (params.l - 1) for d, n in exact.items())
    return math.comb(params.num_sequences, params.l) * periods


def edge_count_upper_bound(k: int, l: int) -> BoundValue:
    """Closed-form upper bound 2^(2l+l^2) * k^l * 2^k * e^(k/l) on edge_count."""
    validate_params(k, l)
    scale = 2 ** (2 * l + l * l) * k**l * 2**k
    exponent = k // l
    lower, upper = e_enclosure()
    return BoundValue(lower=scale * lower**exponent, upper=scale * upper**exponent)


def divisors(k: int) -> list[int]:
    """Positive divisors of k in ascending order, from its prime factorization.

    Trial division by 2, then by odd numbers from the last prime factor found to the cofactor's root
    (past it the cofactor is prime): seq_len = 2^l * k/l comes at once, a prime k in sqrt(k)/2 steps.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {printable(k)}")
    found, rest, p = [1], k, 3
    while rest > 1:
        p = 2 if rest % 2 == 0 else next((d for d in range(p | 1, math.isqrt(rest) + 1, 2) if rest % d == 0), rest)
        known = len(found)
        while rest % p == 0:
            rest //= p
            found += [d * p for d in found[-known:]]
    return sorted(found)


def _log2_count_range(k: int, l: int, slack: float = 1e-9) -> tuple[float, float]:
    """Floats lo <= log2(edge_count(validate_params(k, l))) <= hi, without computing the count.

    With r = k/l and n = seq_len = 2^l * r, C(n, r) lies between 2^(nH)/(n+1)
    and 2^(nH), where nH = n * H(2^-l) = r*l + r*(2^l - 1)*log2(1/(1 - 2^-l))
    (H the binary entropy).  The other two factors, C(2l-1, l) and n^l, are
    taken through lgamma and log2.  Where r or l is past that float
    arithmetic the range is the int k + l*l to inf: C(n, r) >= (n/r)^r = 2^k
    and n^l >= 2^(l*l).
    """
    try:
        r = k // l
        log2_n = l + math.log2(r)  # n = 2^l * r is never built: it has about l bits
        x = 2.0**-l  # 0.0 once 2^-l underflows, where the factor below tends to 1
        factor = -math.log1p(-x) / x * (1 - x) if x else 1.0  # (2^l - 1) * ln(1/(1 - 2^-l))
        log_binomials = math.lgamma(2 * l) - math.lgamma(l + 1) - math.lgamma(l) + r * factor
        hi = log_binomials / math.log(2) + r * l + l * log2_n
    except OverflowError:
        hi = math.inf
    if hi == math.inf:
        return k + l * l, hi
    margin = 4 + slack * hi  # past the float error, about 1e-15*hi; the default fixes the printed lower end
    return hi - (log2_n + math.log1p(2.0**-log2_n) / math.log(2)) - margin, hi + margin


def count_bits(k: int, l: int) -> int | str:
    """Bit length of edge_count(validate_params(k, l)) for a valid pair, or a lower bound on it as text.

    log2 C(n, r), r = k/l and n = 2^l * r, is r*l + (n - r)*log2(1/(1 - 2^-l))
    - log2(2*pi*r*(1 - 2^-l))/2 plus Stirling's remainder rho(n) - rho(r) -
    rho(n - r) over ln 2, bracketed by Robbins' 1/(12m+1) < rho(m) < 1/(12m).
    Widened by the float error, 8 ulps of the summed terms' magnitudes, that
    bracket settles the bit length unless it holds an integer; then the count
    is computed, below 2*10^6 bits.  Lower bounds, as printable() states them:
    "more than l*l" from l*l = COUNT_MAX_BITS on (the count is at least
    seq_len^l), else the lower end of _log2_count_range, as for a block past
    sys.maxsize (math.comb's limit) or an r past the float range.
    """
    if l * l >= COUNT_MAX_BITS:
        return f"more than {printable(l * l)}"
    r, x, ln2 = k // l, 2.0**-l, math.log(2)
    rest = r * (2**l - 1)  # n - r
    try:
        lo = 1 / (12 * (r + rest) + 1) - 1 / (12 * r) - 1 / (12 * rest)
        hi = 1 / (12 * (r + rest)) - 1 / (12 * r + 1) - 1 / (12 * rest + 1)
        terms = [math.log2(math.comb(2 * l - 1, l)), l * (l + math.log2(r)), r * l, -rest * math.log1p(-x) / ln2]
        terms += [-math.log2(2 * math.pi * r * (1 - x)) / 2, (lo + hi) / 2 / ln2]
        estimate = math.fsum(terms)  # rounded once; each term is within 4 ulps
        margin = (hi - lo) / 2 / ln2 + 2**-49 * math.fsum(map(abs, terms))
        if math.floor(estimate - margin) == math.floor(estimate + margin):
            return math.floor(estimate) + 1
    except (OverflowError, ValueError):  # r past the float range: inf, or inf - inf = nan
        estimate = math.inf
    if estimate < 2e6:  # a 2*10^6-bit count takes about a minute
        return edge_count(validate_params(k, l)).bit_length()
    return f"more than {printable(int(_log2_count_range(k, l)[0]))}"


def check_edge_cap(params: Params, edge_cap: int | None) -> int:
    """edge_count(params), or EdgeCapError when it exceeds edge_cap (None: no cap).

    Refused uncomputed, as "more than 2^N" edges, when the lower end of
    _log2_count_range passes both the cap's bit length and 2 * COUNT_MAX_BITS;
    a computed count past COUNT_MAX_BITS is stated by its bit length.
    """
    lower = int(_log2_count_range(params.k, params.l)[0])
    if edge_cap is not None and lower > max(edge_cap.bit_length(), 2 * COUNT_MAX_BITS):
        amount = f"more than 2^{printable(lower)}"
    else:
        count = edge_count(params)
        if edge_cap is None or count <= edge_cap:
            return count
        amount = count if count.bit_length() <= COUNT_MAX_BITS else f"a {count.bit_length()}-bit number of"
    raise EdgeCapError(f"construction would emit {amount} edges, above the cap of {printable(edge_cap)}")


def count_refusal(k: int, l: int) -> str | None:
    """Why edge_count(validate_params(k, l)) is not printed, or None: more than COUNT_MAX_BITS bits, per count_bits."""
    bits = count_bits(k, l)
    if isinstance(bits, str) or bits > COUNT_MAX_BITS:
        return f"the exact edge count has {bits} bits, above the printing limit of {COUNT_MAX_BITS}"
    return None


def best_l(k: int) -> int:
    """The divisor of k that minimizes the exact edge count; ties go low.

    Exact minimization over the valid l values (asymptotically l near log2 k
    wins, but for small k that is usually l = 1).  Each divisor's log2 count
    is first bracketed by _log2_count_range, widened only past the float
    error, and the count is computed only for the divisors whose lower end
    does not exceed the smallest upper end: the others cannot win, nor tie.
    """
    ranges = {l: _log2_count_range(k, l, 1e-12) for l in divisors(k)}
    ceiling = min(hi for _, hi in ranges.values())
    survivors = [l for l, (lo, _) in ranges.items() if lo <= ceiling]
    return min(survivors, key=lambda l: edge_count(validate_params(k, l))) if len(survivors) > 1 else survivors[0]
