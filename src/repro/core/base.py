"""Common interfaces for wordline-crosstalk mitigation schemes.

Every scheme in the paper — SCA, PRA, PRCAT, DRCAT — observes the same
event stream: a sequence of row activations on one DRAM bank.  In response
it may emit *refresh commands*, each naming a contiguous range of rows that
the memory controller must refresh to neutralise accumulated crosstalk.

The :class:`MitigationScheme` interface below is what the DRAM substrate
(:mod:`repro.dram.memory_system`) and the session core
(:mod:`repro.sim.session`) program against.  A scheme instance always
guards a *single bank*; the memory system owns one instance per bank.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, slots=True)
class RefreshCommand:
    """A targeted-refresh request emitted by a mitigation scheme.

    Attributes
    ----------
    low:
        First row of the range to refresh (inclusive).  May be ``-1``
        when the refreshed group starts at row 0 and the scheme asks for
        the row *adjacent below* the group as well; the substrate clamps
        to the physical row range.
    high:
        Last row of the range to refresh (inclusive).  May equal ``N``
        for the row adjacent above the top group; clamped likewise.
    reason:
        Short machine-readable tag, e.g. ``"threshold"`` for a counter
        reaching the refresh threshold or ``"probabilistic"`` for a PRA
        coin-flip refresh.
    """

    low: int
    high: int
    reason: str = "threshold"

    def clamped(self, n_rows: int) -> "RefreshCommand":
        """Return a copy with the range clipped to ``[0, n_rows)``."""
        low = max(0, self.low)
        high = min(n_rows - 1, self.high)
        return RefreshCommand(low, high, self.reason)

    @property
    def span(self) -> int:
        """Number of rows named by this command (before clamping)."""
        return self.high - self.low + 1

    def row_count(self, n_rows: int) -> int:
        """Number of physical rows refreshed once clamped to the bank."""
        c = self.clamped(n_rows)
        return max(0, c.high - c.low + 1)


def checked_register(owner: str, field: str, value, high: int = 1 << 63) -> int:
    """``value`` as an int when it is an integer in ``[0, high)``.

    Restored registers cross into the compiled kernel as int64, so a
    state field that is not an integer, is negative or reaches ``high``
    (by default 2^63) raises a ``ValueError`` naming ``owner``'s field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not 0 <= value < high:
        raise ValueError(
            f"{owner} state field {field!r}: {value!r} is not an integer in [0, {high})"
        )
    return int(value)


class MitigationScheme(abc.ABC):
    """Abstract per-bank wordline-crosstalk mitigation engine.

    Subclasses implement :meth:`access` which is called once per row
    activation and returns the (possibly empty) list of refresh commands
    the activation triggered.

    Parameters
    ----------
    n_rows:
        Number of rows in the guarded bank (``N`` in the paper).
    refresh_threshold:
        The crosstalk refresh threshold ``T``: the number of activations
        an aggressor row may receive before its neighbours must be
        refreshed.
    """

    #: short name used by :func:`repro.core.make_scheme` and in reports
    name: str = "abstract"

    def __init__(self, n_rows: int, refresh_threshold: int) -> None:
        if n_rows <= 0:
            raise ValueError(f"n_rows must be positive, got {n_rows}")
        if refresh_threshold <= 0:
            raise ValueError(
                f"refresh_threshold must be positive, got {refresh_threshold}"
            )
        self.n_rows = n_rows
        self.refresh_threshold = refresh_threshold

    @abc.abstractmethod
    def access(self, row: int) -> list[RefreshCommand]:
        """Record one activation of ``row``; return triggered refreshes."""

    def access_batch(
        self, rows: np.ndarray
    ) -> list[tuple[int, list[RefreshCommand]]]:
        """Record a chunk of activations; return positioned refreshes.

        Exact batch equivalent of calling :meth:`access` once per
        element of ``rows`` (an int64 array): the returned
        ``(position, commands)`` pairs name every access that emitted
        commands, in stream order, and the scheme ends in the identical
        state.  The default replays scalar ``access``, which is always
        correct.  The batched engine serves the five built-in schemes in
        its compiled kernel (:mod:`repro.sim.kernel`) and calls this
        only for a registrant, or on a host without a C compiler.
        """
        events: list[tuple[int, list[RefreshCommand]]] = []
        access = self.access
        for i, row in enumerate(rows.tolist()):
            cmds = access(row)
            if cmds:
                events.append((i, cmds))
        return events

    def on_interval_boundary(self) -> None:
        """Hook invoked by the substrate at each 64 ms auto-refresh epoch.

        The default is a no-op; PRCAT overrides this to rebuild its tree.
        """

    # -- SchemeState protocol --------------------------------------------
    #
    # Every scheme is checkpointable: ``to_state()`` captures the full
    # dynamic state as a JSON-serializable document, and
    # ``restore_state(state)`` overwrites a freshly *constructed* scheme
    # (same configuration) so that its subsequent behaviour — every
    # refresh command, statistic, and structural mutation — is
    # bit-identical to the instance the state was captured from.  The
    # session layer (:mod:`repro.api`) relies on this to checkpoint,
    # fork, and resume runs mid-stream.

    def to_state(self) -> dict:
        """JSON-serializable snapshot of all dynamic scheme state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the SchemeState "
            "protocol (to_state/restore_state)"
        )

    def restore_state(self, state: dict) -> None:
        """Overwrite this (freshly built) scheme from :meth:`to_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the SchemeState "
            "protocol (to_state/restore_state)"
        )

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise ValueError(
                f"row {row} out of range for bank with {self.n_rows} rows"
            )

    # -- introspection helpers -------------------------------------------

    @property
    def counters_in_use(self) -> int:
        """Number of hardware counters the scheme currently occupies."""
        return 0

    def describe(self) -> str:
        """One-line human-readable description of the configuration."""
        return (
            f"{self.name}(n_rows={self.n_rows}, "
            f"T={self.refresh_threshold})"
        )


@dataclass(slots=True)
class ActivationLedger:
    """Oracle used in tests: per-row activation counts since last refresh.

    The rowhammer-safety property (DESIGN.md invariant 2) states that no
    row may accumulate ``T`` activations while a *neighbour* goes
    unrefreshed.  The ledger tracks, for every row, how many times it has
    been activated since the last refresh that covered the row itself or
    either neighbour, mirroring how crosstalk charge accumulates.
    """

    n_rows: int
    counts: dict[int, int] = field(default_factory=dict)

    def activate(self, row: int) -> None:
        """Record an activation of ``row``."""
        self.counts[row] = self.counts.get(row, 0) + 1

    def refresh_range(self, low: int, high: int) -> None:
        """A refresh of rows [low, high] clears aggressor pressure.

        Refreshing a victim row restores its charge, so any aggressor
        pressure accumulated against it resets.  In the paper's scheme the
        refreshed range always includes the group *and* the two adjacent
        rows, so clearing the activation counts of rows whose neighbours
        were refreshed is the faithful bookkeeping: an aggressor row's
        count may be cleared only when both its neighbours were refreshed.
        We conservatively clear a row's count when the row itself and both
        of its in-range neighbours lie inside the refreshed range.
        """
        low = max(0, low)
        high = min(self.n_rows - 1, high)
        for row in list(self.counts):
            lo_ok = row - 1 >= low or row == 0
            hi_ok = row + 1 <= high or row == self.n_rows - 1
            if low <= row <= high and lo_ok and hi_ok:
                del self.counts[row]

    def apply_refreshes(self, commands: "list[RefreshCommand]") -> None:
        """Credit one access's full refresh-command batch at once.

        :meth:`refresh_range` handles a single contiguous range, which
        is how the counter-based schemes emit refreshes.  PRA instead
        emits *two* single-row commands (``row±1``) per successful
        coin-flip; processed one at a time neither clears the aggressor,
        although together they restore both of its victims.  This method
        takes the union of all rows refreshed by one access and clears
        any row whose in-bank neighbours are both inside that union —
        the physically faithful rule for command batches of any shape.
        """
        refreshed: set[int] = set()
        for cmd in commands:
            c = cmd.clamped(self.n_rows)
            if c.high >= c.low:
                refreshed.update(range(c.low, c.high + 1))
        if not refreshed:
            return
        for row in list(self.counts):
            lo_ok = row - 1 in refreshed or row == 0
            hi_ok = row + 1 in refreshed or row == self.n_rows - 1
            if lo_ok and hi_ok:
                del self.counts[row]

    def max_pressure(self) -> int:
        """Highest unrefreshed activation count over all rows."""
        return max(self.counts.values(), default=0)
