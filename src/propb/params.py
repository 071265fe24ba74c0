"""Instance parameters and vertex naming.

An instance is a pair (k, l): edges have k vertices, assembled from l of the
2l-1 vertex sequences, k/l vertices per sequence.  Each sequence has
seq_len = 2^l * k / l positions, so l must divide k.  A vertex is addressed
as (seq, pos) and encoded as the integer seq * seq_len + pos; text formats
number vertices 1-based in that same order.
"""

from __future__ import annotations

from typing import NamedTuple


class ParameterError(ValueError):
    """Invalid (k, l) pair, coloring for it, or setting."""


class Params(NamedTuple):
    """Validated instance parameters; construct via validate_params()."""

    k: int
    l: int
    seq_len: int
    block_size: int

    @property
    def num_sequences(self) -> int:
        return 2 * self.l - 1

    @property
    def num_vertices(self) -> int:
        return self.num_sequences * self.seq_len


def validate_params(k: int, l: int) -> Params:
    """Check a (k, l) pair and derive seq_len = 2^l*k/l and block_size = k/l.

    Raises ParameterError unless 1 <= l <= k and l divides k.
    """
    if not isinstance(k, int) or not isinstance(l, int):
        raise ParameterError(f"k and l must be integers, got k={k!r}, l={l!r}")
    if k < 1 or l < 1:
        raise ParameterError(f"k and l must be positive, got k={k}, l={l}")
    if l > k:
        raise ParameterError(f"l must not exceed k, got k={k}, l={l}")
    if k % l != 0:
        raise ParameterError(f"l must divide k, got k={k}, l={l}")
    block_size = k // l
    seq_len = block_size << l
    return Params(k=k, l=l, seq_len=seq_len, block_size=block_size)
