"""Probabilistic Row Activation (PRA) — the probabilistic baseline.

On every row activation the memory controller draws from a pseudo-random
number generator and, with probability ``p``, refreshes the two rows
physically adjacent to the activated row (the aggressor row itself is not
refreshed — it was just activated).  Reliability depends critically on
the quality of the PRNG (Section III-A): the paper's closed-form
unsurvivability (Eq. 1) holds only for a true random number generator,
while an LFSR-driven PRA fails orders of magnitude earlier.

The PRNG is pluggable via :mod:`repro.analysis.prng` so the Monte-Carlo
study of LFSR weakness reuses this scheme unchanged.
"""

from __future__ import annotations

from repro.analysis.prng import PRNG, TrueRandomPRNG
from repro.core.base import MitigationScheme, RefreshCommand

#: Number of random bits the PRNG emits per activation; 9 bits resolve
#: probabilities down to ~1/512 which covers the paper's p ∈ [0.001, 0.006]
#: comparisons (p is quantised to k/2^9).
PRA_RANDOM_BITS = 9


class PRAScheme(MitigationScheme):
    """Refresh both neighbours of the activated row with probability p."""

    name = "pra"

    def __init__(
        self,
        n_rows: int,
        refresh_threshold: int,
        probability: float,
        prng: PRNG | None = None,
        random_bits: int = PRA_RANDOM_BITS,
    ) -> None:
        super().__init__(n_rows, refresh_threshold)
        if not 0.0 < probability < 1.0:
            raise ValueError(f"probability must be in (0, 1), got {probability}")
        self.probability = probability
        self.random_bits = random_bits
        self._prng = prng if prng is not None else TrueRandomPRNG()
        # Quantise p to the grid the hardware comparator can express.
        self._cut = max(1, round(probability * (1 << random_bits)))

    @property
    def effective_probability(self) -> float:
        """The probability actually realised after bit quantisation."""
        return self._cut / (1 << self.random_bits)

    def _neighbor_commands(self, row: int) -> list[RefreshCommand]:
        """The in-range ``row±1`` refreshes a successful coin-flip emits."""
        commands = []
        if row - 1 >= 0:
            commands.append(RefreshCommand(row - 1, row - 1, reason="probabilistic"))
        if row + 1 < self.n_rows:
            commands.append(RefreshCommand(row + 1, row + 1, reason="probabilistic"))
        return commands

    def access(self, row: int) -> list[RefreshCommand]:
        """Flip the coin; on success refresh rows ``row±1``."""
        self._check_row(row)
        if self._prng.next_bits(self.random_bits) >= self._cut:
            return []
        return self._neighbor_commands(row)

    def to_state(self) -> dict:
        """SchemeState protocol: the PRNG stream position is the state."""
        return {"scheme": self.name, "prng": self._prng.to_state()}

    def restore_state(self, state: dict) -> None:
        """SchemeState protocol: resume the captured PRNG stream."""
        from repro.analysis.prng import prng_from_state

        self._prng = prng_from_state(state["prng"])

    @property
    def counters_in_use(self) -> int:
        """PRA keeps no counters; only the shared PRNG."""
        return 0

    def describe(self) -> str:
        """One-line configuration summary."""
        return (
            f"PRA_{self.probability}(n_rows={self.n_rows}, "
            f"T={self.refresh_threshold}, prng={self._prng.name})"
        )
