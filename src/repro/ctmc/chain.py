"""Sparse continuous-time Markov chains.

A :class:`CTMC` is a labelled state space with a sparse generator
matrix ``Q`` (off-diagonal entries are transition rates; rows sum to
zero) and an initial distribution.  Chains are built incrementally with
:class:`CTMCBuilder`, which accepts arbitrary hashable state labels and
assigns dense indices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports
    from scipy import sparse

__all__ = ["CTMC", "CTMCBuilder"]


class CTMCBuilder:
    """Incremental construction of a CTMC.

    Adding a transition automatically registers unseen states.
    Parallel transitions between the same pair of states accumulate
    their rates.  Self-loops are rejected (they are meaningless in a
    CTMC generator).
    """

    def __init__(self):
        self._index: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []
        self._entries: Dict[Tuple[int, int], float] = {}

    def add_state(self, label: Hashable) -> int:
        """Register a state (idempotent); returns its index."""
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    def add_transition(self, src: Hashable, dst: Hashable, rate: float) -> None:
        """Add a transition ``src -> dst`` with the given positive rate."""
        if rate <= 0.0 or not np.isfinite(rate):
            raise ValidationError(f"transition rate must be positive, got {rate}")
        i = self.add_state(src)
        j = self.add_state(dst)
        if i == j:
            raise ValidationError(f"self-loop on state {src!r}")
        key = (i, j)
        self._entries[key] = self._entries.get(key, 0.0) + rate

    @property
    def n_states(self) -> int:
        """Number of states registered so far."""
        return len(self._labels)

    def build(self, initial: Optional[Hashable] = None) -> "CTMC":
        """Finalize into a :class:`CTMC`.

        ``initial`` defaults to the first registered state.
        """
        if not self._labels:
            raise ValidationError("cannot build an empty CTMC")
        n = len(self._labels)
        if initial is None:
            initial_index = 0
        else:
            if initial not in self._index:
                raise ValidationError(f"unknown initial state {initial!r}")
            initial_index = self._index[initial]
        rows, cols, vals = [], [], []
        diagonal = np.zeros(n)
        for (i, j), rate in self._entries.items():
            rows.append(i)
            cols.append(j)
            vals.append(rate)
            diagonal[i] -= rate
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diagonal)
        from scipy import sparse

        generator = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(n, n), dtype=float
        )
        initial_dist = np.zeros(n)
        initial_dist[initial_index] = 1.0
        return CTMC(list(self._labels), generator, initial_dist)


class CTMC:
    """An immutable CTMC: labels, generator, initial distribution."""

    def __init__(
        self,
        labels: List[Hashable],
        generator: sparse.csr_matrix,
        initial: np.ndarray,
    ):
        n = len(labels)
        if generator.shape != (n, n):
            raise ValidationError(
                f"generator shape {generator.shape} does not match {n} labels"
            )
        if initial.shape != (n,):
            raise ValidationError("initial distribution has wrong length")
        if abs(initial.sum() - 1.0) > 1e-9 or np.any(initial < 0.0):
            raise ValidationError("initial is not a probability distribution")
        row_sums = np.asarray(generator.sum(axis=1)).ravel()
        if np.max(np.abs(row_sums)) > 1e-8:
            raise ValidationError("generator rows do not sum to zero")
        self.labels = list(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}
        self.generator = generator
        self.initial = initial

    @property
    def n_states(self) -> int:
        """Size of the state space."""
        return len(self.labels)

    def index_of(self, label: Hashable) -> int:
        """Dense index of a state label."""
        idx = self._index.get(label)
        if idx is None:
            raise AnalysisError(f"unknown state {label!r}")
        return idx

    def exit_rates(self) -> np.ndarray:
        """Total exit rate of each state (-diagonal of the generator)."""
        return -self.generator.diagonal()

    def uniformization_rate(self) -> float:
        """A valid uniformization constant (max exit rate, floored)."""
        rates = self.exit_rates()
        peak = float(rates.max()) if len(rates) else 0.0
        return max(peak, 1e-12)

    def absorbing_states(self) -> List[int]:
        """Indices of states with no outgoing transitions."""
        rates = self.exit_rates()
        return [i for i in range(self.n_states) if rates[i] <= 1e-15]

    def __repr__(self) -> str:
        return f"CTMC(n_states={self.n_states}, nnz={self.generator.nnz})"
