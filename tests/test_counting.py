import itertools
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb as binomial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from propb import counting
from propb.counting import (
    COUNT_MAX_BITS,
    EdgeCapError,
    best_l,
    check_edge_cap,
    count_bits,
    distinct_edge_count,
    divisors,
    e_enclosure,
    edge_count,
    edge_count_upper_bound,
    scientific,
)
from helpers import binomial_upper_bound, log2_count_range_by_int, scientific_by_integers
from propb.params import ParameterError, validate_params


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(1, 1) == 1
    assert binomial(8, 2) == 28
    assert binomial(3, 7) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


@given(st.integers(0, 200), st.integers(0, 200))
def test_binomial_matches_factorial_definition(n, r):
    if r > n:
        assert binomial(n, r) == 0
    else:
        assert binomial(n, r) == math.factorial(n) // (
            math.factorial(r) * math.factorial(n - r)
        )


# Frozen from the closed form C(2l-1,l) * seq_len^l * C(seq_len, k/l),
# evaluated by hand/bignum for each pair.
EDGE_COUNTS = {
    (2, 1): 24,
    (3, 1): 120,
    (4, 1): 560,
    (2, 2): 192,
    (4, 2): 5376,
    (6, 2): 95_040,
    (3, 3): 40_960,
    (6, 3): 4_915_200,
}


@pytest.mark.parametrize("pair,expected", sorted(EDGE_COUNTS.items()))
def test_edge_count_frozen_values(pair, expected):
    k, l = pair
    assert edge_count(validate_params(k, l)) == expected


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((2, 1), 6),
        ((3, 1), 20),
        ((2, 2), 48),
        ((4, 2), 624),
        ((6, 2), 7824),
        ((3, 3), 5120),
        ((6, 3), 291_840),
        ((8, 2), 86_640),
    ],
)
def test_distinct_edge_count_frozen_values(pair, expected):
    assert distinct_edge_count(validate_params(*pair)) == expected


def test_distinct_edge_count_matches_the_period_sum():
    # C(2l-1, l) * sum over blocks S of period(S)^(l-1), with each period
    # found by trying every rotation.
    for k in range(1, 9):
        for l in divisors(k):
            p = validate_params(k, l)
            n = p.seq_len
            total = 0
            for block in itertools.combinations(range(n), p.block_size):
                period = next(t for t in range(1, n + 1) if {(r + t) % n for r in block} == set(block))
                total += period ** (l - 1)
            assert distinct_edge_count(p) == binomial(2 * l - 1, l) * total, (k, l)


def test_scientific_matches_float_formatting_and_goes_past_it():
    for value in [Fraction(1), Fraction(6523, 40), Fraction(10**300, 7), Fraction(484_124)]:
        assert scientific(value) == f"{float(value):.4e}"
    # Past the float range, against decimal arithmetic rounding half to even.
    huge = [
        Fraction(10**400),
        Fraction(2**1100, 3),
        Fraction(999_995 * 10**400),
        Fraction(999_985 * 10**400),
        Fraction(3**2000, 7**5),
        # past CPython's 4300-digit int-to-str limit
        Fraction(10**5000),
        Fraction(2**20000, 3),
        Fraction(10**4400 - 1),
        Fraction(999_995 * 10**4400),
    ]
    for value in huge:
        with pytest.raises(OverflowError):
            float(value)
        with localcontext() as ctx:
            ctx.prec = 60
            expected = format(Decimal(value.numerator) / Decimal(value.denominator), ".4e")
        assert scientific(value) == expected
    assert scientific(Fraction(999_995 * 10**400)) == "1.0000e+406"


# Past the float range (about 1.8e308), against the integer algorithm that
# printed these figures before: quotients of random size, ...
@given(st.integers(1, 2**64), st.integers(1, 2**64), st.integers(1100, 40_000))
def test_scientific_past_the_float_range_matches_integer_rounding(numerator, denominator, shift):
    value = Fraction(numerator << shift, denominator)
    assert scientific(value) == scientific_by_integers(value)


# ... exact ties m * 10^e with m ending in 5, rounded half to even, and
# carries such as 999_995 * 10^e that round up to the next power of ten.
@given(
    st.one_of(
        st.integers(10**4, 10**5 - 1).map(lambda m: 10 * m + 5),
        st.sampled_from([99_995, 999_995, 999_985, 9_999_950, 10**6 - 1]),
    ),
    st.integers(309, 5000),
)
def test_scientific_rounds_ties_and_carries_past_the_float_range_as_integers_do(mantissa, exponent):
    value = Fraction(mantissa * 10**exponent)
    assert scientific(value) == scientific_by_integers(value)


def test_e_enclosure_is_tight_and_correct():
    E_LOWER, E_UPPER = e_enclosure()
    assert E_LOWER < E_UPPER
    assert float(E_UPPER - E_LOWER) < 1e-40
    # the enclosure is far tighter than a double, so both ends round to e
    assert float(E_LOWER) == pytest.approx(math.e, abs=1e-15)
    assert float(E_UPPER) == pytest.approx(math.e, abs=1e-15)


def test_binomial_upper_bound_examples():
    b = binomial_upper_bound(4, 2)
    assert binomial(4, 2) <= b.lower
    assert abs(float(b.upper) - (2 * math.e) ** 2) < 1e-9

    b = binomial_upper_bound(8, 2)
    assert binomial(8, 2) <= b.lower
    assert abs(float(b.upper) - (4 * math.e) ** 2) < 1e-9

    b = binomial_upper_bound(3, 3)
    assert binomial(3, 3) == 1 <= b.lower
    assert abs(float(b.upper) - math.e**3) < 1e-9


def test_binomial_upper_bound_domain():
    with pytest.raises(ValueError):
        binomial_upper_bound(2, 3)
    with pytest.raises(ValueError):
        binomial_upper_bound(4, 0)


@given(st.integers(1, 80), st.integers(1, 80))
def test_binomial_below_bound(n, r):
    if r > n:
        return
    bound = binomial_upper_bound(n, r)
    assert bound.certifies_at_most(binomial(n, r))


def test_edge_count_upper_bound_examples():
    b = edge_count_upper_bound(2, 1)
    assert b.certifies_at_most(24)
    assert abs(float(b.upper) - 2**3 * 2 * 4 * math.e**2) < 1e-6

    b = edge_count_upper_bound(4, 2)
    assert b.certifies_at_most(5376)
    assert abs(float(b.upper) - 2**8 * 16 * 16 * math.e**2) < 1e-3

    b = edge_count_upper_bound(2, 2)
    assert b.certifies_at_most(192)
    assert abs(float(b.upper) - 2**8 * 4 * 4 * math.e) < 1e-6


def test_edge_count_upper_bound_rejects_bad_pairs():
    with pytest.raises(ParameterError):
        edge_count_upper_bound(3, 2)
    with pytest.raises(ParameterError):
        edge_count_upper_bound(2, 3)


def test_bound_dominates_count_small_sweep():
    for k in range(1, 13):
        for l in divisors(k):
            count = edge_count(validate_params(k, l))
            assert edge_count_upper_bound(k, l).certifies_at_most(count), (k, l)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(16) == [1, 2, 4, 8, 16]
    with pytest.raises(ParameterError):
        divisors(0)


def test_divisors_equal_trial_division_up_to_3000():
    for n in range(1, 3001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_divisors_of_seq_len_are_powers_of_two_times_divisors_of_block_size():
    for k in range(1, 41):
        for l in divisors(k):
            p = validate_params(k, l)
            expected = sorted({2**a * d for a in range(l + 1) for d in divisors(p.block_size)})
            assert divisors(p.seq_len) == expected, (k, l)


def test_divisors_of_large_numbers():
    # One scan finds the smaller of two primes near 10^6, and leaves the other as a prime cofactor.
    assert divisors(999983 * 999979) == [1, 999979, 999983, 999983 * 999979]
    assert divisors(2**64) == [2**a for a in range(65)]
    assert divisors(10**20) == sorted(2**a * 5**b for a in range(21) for b in range(21))
    assert (len(divisors(2**64)), len(divisors(10**20))) == (65, 441)


def test_distinct_edge_count_at_l_equals_k_is_fast():
    # seq_len = 2^64: trial division up to its square root would take minutes.
    # Every block is a single position, of period seq_len.
    p = validate_params(64, 64)
    start = time.perf_counter()
    count = distinct_edge_count(p)
    assert time.perf_counter() - start < 1.0
    assert count == binomial(127, 64) * p.seq_len**64


def test_the_exponent_falls_toward_one():
    # The paper's point: with l = best_l(k), log2 of the edge count per unit of
    # k shrinks as k grows, staying above 1 (the 2^k factor every count has).
    exponents = [math.log2(edge_count(validate_params(k, best_l(k)))) / k for k in (2**j for j in range(1, 12))]
    assert all(a > b for a, b in zip(exponents, exponents[1:])), exponents
    assert exponents[-1] > 1, exponents


def test_log2_count_range_bounds_agree_with_the_int_seq_len_bracket():
    # The bracket takes log2(seq_len) as l + log2(k/l), and so never builds
    # 2^l as an int; its integer parts are those of the bracket that did.
    rng = random.Random(23)
    ks = list(range(1, 200)) + rng.sample(range(200, 10**7), 300)
    pairs = [(k, l) for k in ks for l in divisors(k) if l <= 4000]
    for k, l in rng.sample(pairs, 1500):
        ours, theirs = counting._log2_count_range(k, l), log2_count_range_by_int(k, l)
        assert [int(end) for end in ours] == [int(end) for end in theirs], (k, l)


def test_log2_count_range_brackets_the_exact_count():
    for k, l in [(2, 1), (12, 3), (60, 5), (96, 8), (1000, 1), (4096, 16)]:
        lo, hi = counting._log2_count_range(k, l)
        bits = math.log2(edge_count(validate_params(k, l)))
        assert lo <= bits <= hi


def test_count_bits_is_the_exact_bit_length_of_every_count_up_to_k_400():
    # 2,089 pairs; the Stirling bracket straddles an integer on 2, (1, 1) and
    # (81, 81), where the count is computed.
    for k in range(1, 401):
        for l in divisors(k):
            if l * l < COUNT_MAX_BITS:
                assert count_bits(k, l) == edge_count(validate_params(k, l)).bit_length(), (k, l)


def test_count_bits_of_large_counts_computes_no_count(monkeypatch):
    def refuse(params):
        raise AssertionError(f"computed the count of ({params.k}, {params.l})")

    monkeypatch.setattr(counting, "edge_count", refuse)
    # The exact bit lengths, as printed when the counts were computed.
    assert count_bits(100000, 1) == 200009
    assert count_bits(100000, 40) == 105727
    assert count_bits(300000, 1) == 600010
    # Once computed where a wider bracket straddled an integer: 1-3 s each.
    assert count_bits(769911, 3) == 1116047
    assert count_bits(205887, 1) == 411783
    assert count_bits(938640, 8) == 1107782
    # Lower bounds: seq_len^l >= 2^(l*l), and a bracket too wide to settle.
    assert count_bits(128, 128) == "more than 16384"
    # From k = 2.9*10^307 on, Stirling's floats overflow to inf or nan; the
    # bracket holds below 9*10^307, and past it every count is >= 2^(k + l*l).
    for k in (10**18, 10**20, 29 * 10**306):
        assert count_bits(k, 1) == f"more than {int(counting._log2_count_range(k, 1)[0])}"
    assert counting._log2_count_range(10**400, 1) == (10**400 + 1, math.inf)
    assert count_bits(10**400, 1) == f"more than {10**400 + 1}"


def test_the_l_equals_k_row_has_the_longest_count_up_to_k_118():
    # bound asks count_bits about this row alone; from k = 119 on, its
    # count has more than k*k >= COUNT_MAX_BITS bits.
    for k in range(1, 119):
        counts = [edge_count(validate_params(k, l)) for l in divisors(k)]
        assert max(counts) == counts[-1], k
    assert 119 * 119 >= COUNT_MAX_BITS > 118 * 118


def test_a_cap_past_4300_digits_is_stated_by_its_size():
    # str() of this cap once raised ValueError (the 4300-digit limit).
    with pytest.raises(EdgeCapError) as refusal:
        check_edge_cap(validate_params(14003, 1), 1 << 28000)
    assert str(refusal.value) == (
        "construction would emit a 28014-bit number of edges, above the cap of a 28001-bit number of"
    )


def test_a_negative_k_past_4300_digits_is_refused_by_its_size():
    # str() of this k once raised ValueError (the 4300-digit limit), not ParameterError.
    with pytest.raises(ParameterError, match=r"^k must be positive, got a negative 16610-bit number of$"):
        divisors(-(10**5000))


def test_the_uncomputed_cap_refusal_waits_for_the_lower_end_to_pass_the_cap():
    # At l = 1 the bracket's lower end (28001 at k = 14003) first passes 2 * COUNT_MAX_BITS,
    # so under the default cap the count is refused uncomputed; a longer cap has it computed.
    assert check_edge_cap(validate_params(14003, 1), 1 << 30000) == edge_count(validate_params(14003, 1))


def test_best_l_examples():
    # k=2: 24 vs 192; k=4: 560 vs 5376 vs 36_700_160.
    assert best_l(2) == 1
    assert best_l(1) == 1
    assert best_l(4) == 1


def test_best_l_equals_the_brute_force_minimum_up_to_300():
    for k in range(1, 301):
        counts = {l: edge_count(validate_params(k, l)) for l in divisors(k)}
        smallest = min(counts.values())
        assert best_l(k) == min(l for l, count in counts.items() if count == smallest), k


def test_best_l_computes_no_count_when_one_divisor_survives(monkeypatch):
    # 200003 is prime: the l = 200003 bracket starts far above l = 1's, so
    # l = 1 wins without its 400,000-bit count being computed.
    def refuse(params):
        raise AssertionError(f"computed the count of ({params.k}, {params.l})")

    monkeypatch.setattr(counting, "edge_count", refuse)
    assert divisors(200003) == [1, 200003]
    assert best_l(200003) == 1


def test_best_l_of_a_huge_k_with_small_prime_factors_computes_no_count(monkeypatch):
    # With brackets widened by 1e-9 * hi, about 10^11 bits at k = 10^20, three
    # divisors survived there and their counts, of about 10^20 bits, were computed.
    def refuse(params):
        raise AssertionError(f"computed the count of ({params.k}, {params.l})")

    monkeypatch.setattr(counting, "edge_count", refuse)
    assert best_l(10**16) == 200000
    assert best_l(2**64) == 2097152
    assert best_l(10**20) == 4096000


@given(st.integers(1, 40))
def test_best_l_is_the_exact_minimizer(k):
    chosen = best_l(k)
    assert k % chosen == 0
    counts = {l: edge_count(validate_params(k, l)) for l in divisors(k)}
    assert counts[chosen] == min(counts.values())
    # ties break toward the smaller divisor
    assert all(counts[l] > counts[chosen] for l in divisors(k) if l < chosen)
