"""Currency-overlay algebra.

A currency overlay is built from FX forward positions. Each forward pair
shifts exposure between two currencies; the ternary pair matrix encodes
which currency each pair buys (+1) and sells (-1). Positive position
size on pair (j1, j2) with j1 < j2 means buying j1 against j2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class TernaryMatrix:
    """K x C pair matrix with one +1 and one -1 per row."""

    matrix: np.ndarray
    pairs: tuple[tuple[int, int], ...]  # (long currency, short currency), 0-based

    @property
    def n_pairs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_currencies(self) -> int:
        return self.matrix.shape[1]


def build_ternary(C: int) -> TernaryMatrix:
    """Enumerate all C-choose-2 forward pairs in lexicographic order."""
    if C < 2:
        raise DimensionMismatch(f"need at least 2 currencies, got {C}")
    pairs = tuple(combinations(range(C), 2))
    T = np.zeros((len(pairs), C), dtype=int)
    for k, (j1, j2) in enumerate(pairs):
        T[k, j1] = 1
        T[k, j2] = -1
    return TernaryMatrix(matrix=T, pairs=pairs)


def build_overlay(T: TernaryMatrix, q) -> np.ndarray:
    """Exposure matrix F with F[k, j] = T[k, j] * q[k]; rows sum to zero."""
    q = np.asarray(q, dtype=float)
    if q.shape != (T.n_pairs,):
        raise DimensionMismatch(
            f"q has shape {q.shape}, expected ({T.n_pairs},)"
        )
    return T.matrix * q[:, None]


def overlay_positions(F: np.ndarray) -> np.ndarray:
    """Net overlay position per currency: column sums of F."""
    return np.asarray(F, dtype=float).sum(axis=0)


def cost_of_carry(positions, rates) -> float:
    """Net carry earned on overlay positions: sum of position * rate."""
    positions = np.asarray(positions, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if positions.shape != rates.shape:
        raise DimensionMismatch(
            f"positions {positions.shape} vs rates {rates.shape}"
        )
    return float(positions @ rates)


def total_overlay(F) -> float:
    """Overlay magnitude: half the sum of absolute per-currency positions."""
    return 0.5 * float(np.abs(overlay_positions(F)).sum())

