"""Instance parameters and vertex naming.

An instance is a pair (k, l): edges have k vertices, assembled from l of the
2l-1 vertex sequences, k/l vertices per sequence.  Each sequence has
seq_len = 2^l * k / l positions, so l must divide k.  A vertex is addressed
as (seq, pos) and encoded as the integer seq * seq_len + pos; text formats
number vertices 1-based in that same order.

Params holds k and l alone; every other size is derived from them on read,
so a size refusal can rule from (k, l) before a number of l bits is built.
printable states an int too long for str(), here or in a refusal, by its size.
"""

from __future__ import annotations

from typing import NamedTuple


class ParameterError(ValueError):
    """Invalid (k, l) pair, coloring for it, or setting."""


class Params(NamedTuple):
    """Validated instance parameters, k and l; construct via validate_params().

    block_size, seq_len, num_sequences and num_vertices are computed on read.
    """

    k: int
    l: int

    @property
    def block_size(self) -> int:
        return self.k // self.l

    @property
    def seq_len(self) -> int:
        return self.block_size << self.l

    @property
    def num_sequences(self) -> int:
        return 2 * self.l - 1

    @property
    def num_vertices(self) -> int:
        return self.num_sequences * self.seq_len


def validate_params(k: int, l: int) -> Params:
    """Check a (k, l) pair, in a time that does not grow with l; Params derives the rest on read.

    Raises ParameterError unless 1 <= l <= k and l divides k.
    """
    if not isinstance(k, int) or not isinstance(l, int):
        raise ParameterError(f"k and l must be integers, got k={k!r}, l={l!r}")
    if k < 1 or l < 1:
        raise ParameterError(f"k and l must be positive, got k={printable(k)}, l={printable(l)}")
    if l > k:
        raise ParameterError(f"l must not exceed k, got k={printable(k)}, l={printable(l)}")
    if k % l != 0:
        raise ParameterError(f"l must divide k, got k={printable(k)}, l={printable(l)}")
    return Params(k=k, l=l)


def printable(factor: int, shift: int = 0) -> str:
    """factor * 2^shift in full below 10^4300 in size, where CPython 3.11 stops printing ints by default; else its bit count.

    Never builds a number of more than 14,285 bits, the bit length of 10^4300.
    """
    bits = factor.bit_length() + shift
    if bits <= 14_285 and abs(n := factor << shift) < 10**4300:
        return str(n)
    return f"a {'negative ' * (factor < 0)}{bits}-bit number of"
