"""Constant composition distribution matcher.

Maps k uniform bits to length-n symbol sequences whose per-symbol counts
equal a prescribed composition exactly, and back. The mapping subdivides an
integer interval proportionally to the remaining symbol counts at each
position (arithmetic coding with exact big-integer arithmetic), so encode
and decode are exact inverses for every one of the 2^k inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Composition",
    "CompositionMismatch",
    "NotInImage",
    "quantize_composition",
    "ccdm_input_length",
    "ccdm_encode",
    "ccdm_decode",
]


class CompositionMismatch(ValueError):
    """Symbol sequence whose counts disagree with the composition."""


class NotInImage(ValueError):
    """Sequence has the right composition but was not produced by the
    encoder (its rank falls beyond the 2^k encodable prefix)."""


@dataclass(frozen=True)
class Composition:
    """Integer symbol-count vector defining one CCDM block."""

    counts: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", sum(counts))

    @property
    def n_symbols(self) -> int:
        return len(self.counts)

    def multinomial(self) -> int:
        """Number of distinct sequences with these counts, exact."""
        total = math.factorial(self.n)
        for c in self.counts:
            total //= math.factorial(c)
        return total


def quantize_composition(dist, n: int) -> Composition:
    """Largest-remainder rounding of n * p_i into an exact composition.

    Floors n*p_i, then hands the leftover symbols to the largest remainders,
    ties broken by point index. The result is L1-closest to p among count
    vectors reachable by +-1 adjustments of the naive rounding.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    p = np.asarray(dist.p, dtype=float)
    exact = n * p
    base = np.floor(exact).astype(int)
    deficit = n - int(base.sum())
    rem = exact - base
    # stable sort on (-remainder) keeps index order among ties
    order = np.argsort(-rem, kind="stable")
    base[order[:deficit]] += 1
    return Composition(counts=tuple(int(c) for c in base))


def ccdm_input_length(comp: Composition) -> int:
    """Input capacity k = floor(log2 multinomial), exact."""
    return comp.multinomial().bit_length() - 1


def _as_bits(bits) -> list[int]:
    out = [int(b) for b in bits]
    if any(b not in (0, 1) for b in out):
        raise ValueError("bits must be 0 or 1")
    return out


def ccdm_encode(bits, comp: Composition) -> np.ndarray:
    """Encode exactly k = ccdm_input_length(comp) bits into a constant
    composition symbol-index sequence of length comp.n."""
    if comp.n == 0:
        raise ValueError("cannot encode with an empty composition")
    bits = _as_bits(bits)
    k = ccdm_input_length(comp)
    if len(bits) != k:
        raise ValueError(f"expected {k} input bits, got {len(bits)}")

    v = 0
    for b in bits:  # MSB first
        v = (v << 1) | b

    counts = list(comp.counts)
    n_rem = comp.n
    n_seq = comp.multinomial()
    out = np.empty(comp.n, dtype=np.int64)
    for pos in range(comp.n):
        acc = 0
        for a, c in enumerate(counts):
            if c == 0:
                continue
            # sequences beginning with symbol a: exact integer split
            n_a = n_seq * c // n_rem
            if v < acc + n_a:
                out[pos] = a
                v -= acc
                n_seq = n_a
                counts[a] -= 1
                n_rem -= 1
                break
            acc += n_a
    return out


def ccdm_decode(symbols, comp: Composition) -> np.ndarray:
    """Invert ccdm_encode; reject sequences with the wrong composition or
    outside the encoder's image (both signal a corrupted frame)."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.ndim != 1 or symbols.size != comp.n:
        raise CompositionMismatch(
            f"sequence length {symbols.size} differs from composition n={comp.n}"
        )
    if symbols.size and (symbols.min() < 0 or symbols.max() >= comp.n_symbols):
        raise CompositionMismatch("symbol index outside the composition alphabet")
    observed = np.bincount(symbols, minlength=comp.n_symbols)
    if tuple(observed.tolist()) != comp.counts:
        raise CompositionMismatch(
            f"sequence counts {observed.tolist()} != composition {list(comp.counts)}"
        )

    counts = list(comp.counts)
    n_rem = comp.n
    n_seq = comp.multinomial()
    v = 0
    for s in symbols:
        acc = 0
        for a in range(s):
            c = counts[a]
            if c:
                acc += n_seq * c // n_rem
        v += acc
        n_seq = n_seq * counts[s] // n_rem
        counts[s] -= 1
        n_rem -= 1

    k = ccdm_input_length(comp)
    if v >= (1 << k):
        raise NotInImage(f"sequence rank {v} >= 2^{k}; not an encoder output")
    return np.array([(v >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.int64)
