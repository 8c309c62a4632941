"""The DRAM memory system: banks + per-bank mitigation engines.

This is the integration point between the substrate and the paper's
contribution: every bank owns a :class:`~repro.core.base.MitigationScheme`
instance; each demand activation is forwarded to the bank's scheme, and
any refresh commands the scheme emits occupy that bank for the modelled
duration, delaying subsequent demand requests (the source of ETO).

Auto-refresh epoch boundaries (every 64 ms of simulated time) invoke each
scheme's ``on_interval_boundary`` hook — PRCAT rebuilds its tree there,
SCA and DRCAT reset their counts (all accumulated crosstalk pressure is
cleared by the blanket refresh).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.base import MitigationScheme, RefreshCommand
from repro.dram.bank import BankState
from repro.dram.config import REFRESH_INTERVAL_S, SystemConfig


class MemorySystem:
    """All banks of one system plus their mitigation engines.

    Parameters
    ----------
    config:
        System geometry and timings.
    scheme_factory:
        Callable ``(n_rows) -> MitigationScheme`` constructing one
        mitigation engine per bank.  ``None`` runs an unprotected
        baseline (used to measure the ETO denominator).
    active_banks:
        When given, only the first ``active_banks`` banks get mitigation
        engines; the rest stay unprotected.  The trace-driven simulator
        uses this to avoid constructing schemes for banks that never
        receive traffic.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme_factory: Callable[[int], MitigationScheme] | None,
        epoch_s: float = REFRESH_INTERVAL_S,
        active_banks: int | None = None,
    ) -> None:
        self.config = config
        n_active = config.n_banks if active_banks is None else active_banks
        self.banks = [BankState(config.timings) for _ in range(config.n_banks)]
        self.schemes: list[MitigationScheme | None] = [
            scheme_factory(config.rows_per_bank)
            if scheme_factory and bank < n_active
            else None
            for bank in range(config.n_banks)
        ]
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        self._epoch_ns = epoch_s * 1e9
        self._next_epoch_ns = self._epoch_ns
        self.total_refresh_commands = 0
        self.total_rows_refreshed = 0
        self.last_completion_ns = 0.0
        #: auto-refresh epoch boundaries crossed so far
        self.epochs_completed = 0
        #: observer taps (see :mod:`repro.api`): pure read-only callbacks;
        #: they must not mutate simulation state.
        #: ``on_epoch(epoch_index)`` fires after each boundary crossing,
        #: ``on_refresh(bank, time_ns, cmd, rows)`` after each mitigation
        #: refresh command is applied.
        self.on_epoch: Callable[[int], None] | None = None
        self.on_refresh: (
            Callable[[int, float, RefreshCommand, int], None] | None
        ) = None

    def access(self, time_ns: float, bank: int, row: int) -> float:
        """One demand activation; returns its completion time (ns)."""
        self._advance_epochs(time_ns)
        bank_state = self.banks[bank]
        scheme = self.schemes[bank]
        done = bank_state.serve_access(time_ns)
        if scheme is not None:
            for cmd in scheme.access(row):
                self.apply_refresh(bank_state, done, cmd, bank=bank)
        self.last_completion_ns = max(self.last_completion_ns, bank_state.free_at_ns)
        return done

    def apply_refresh(
        self,
        bank_state: BankState,
        time_ns: float,
        cmd: RefreshCommand,
        bank: int,
    ) -> None:
        """Apply one scheme-emitted refresh command to a bank.

        Part of the public surface: the batched engine
        (:mod:`repro.sim.engine`) applies the events of a registrant, or
        of any scheme on a host without a C compiler, through this exact
        path, so it must stay in lock-step with :meth:`access`'s scalar
        behaviour (backlog accounting, totals, the ``on_refresh`` tap).
        """
        rows = cmd.row_count(self.config.rows_per_bank)
        bank_state.serve_refresh(time_ns, rows)
        self.total_refresh_commands += 1
        self.total_rows_refreshed += rows
        if self.on_refresh is not None:
            self.on_refresh(bank, time_ns, cmd, rows)

    def _advance_epochs(self, time_ns: float) -> None:
        while time_ns >= self._next_epoch_ns:
            for bank_state in self.banks:
                bank_state.reset_epoch()
            for scheme in self.schemes:
                if scheme is not None:
                    scheme.on_interval_boundary()
            self._next_epoch_ns += self._epoch_ns
            self.epochs_completed += 1
            if self.on_epoch is not None:
                self.on_epoch(self.epochs_completed)

    # -- checkpointable state (see repro.api) ----------------------------

    def to_state(self) -> dict:
        """JSON-serializable capture of substrate + per-bank scheme state.

        Observer taps are deliberately excluded: callbacks belong to a
        live session, not to the simulation state.
        """
        return {
            "next_epoch_ns": self._next_epoch_ns,
            "epochs_completed": self.epochs_completed,
            "total_refresh_commands": self.total_refresh_commands,
            "total_rows_refreshed": self.total_rows_refreshed,
            "last_completion_ns": self.last_completion_ns,
            "banks": [bank.to_state() for bank in self.banks],
            "schemes": [
                scheme.to_state() if scheme is not None else None
                for scheme in self.schemes
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite a freshly built system (same config/factory).

        The scheme layout (which banks are protected, and by which
        scheme kind) must match the layout the state was captured from.
        """
        bank_states = state["banks"]
        scheme_states = state["schemes"]
        if len(bank_states) != len(self.banks):
            raise ValueError(
                f"state carries {len(bank_states)} banks, system has "
                f"{len(self.banks)}"
            )
        for scheme, doc in zip(self.schemes, scheme_states):
            if (scheme is None) != (doc is None):
                raise ValueError(
                    "state protected-bank layout does not match the "
                    "rebuilt system"
                )
            if scheme is not None and doc.get("scheme") != scheme.name:
                raise ValueError(
                    f"state scheme {doc.get('scheme')!r} does not match "
                    f"rebuilt scheme {scheme.name!r}"
                )
        self._next_epoch_ns = float(state["next_epoch_ns"])
        self.epochs_completed = int(state["epochs_completed"])
        self.total_refresh_commands = int(state["total_refresh_commands"])
        self.total_rows_refreshed = int(state["total_rows_refreshed"])
        self.last_completion_ns = float(state["last_completion_ns"])
        for bank, doc in zip(self.banks, bank_states):
            bank.restore_state(doc)
        for scheme, doc in zip(self.schemes, scheme_states):
            if scheme is not None:
                scheme.restore_state(doc)

    # -- aggregate views -------------------------------------------------

    @property
    def total_stall_ns(self) -> float:
        """Demand stall attributed to mitigation refreshes, all banks."""
        return sum(b.stall_ns for b in self.banks)

    @property
    def total_activations(self) -> int:
        """Demand activations served across all banks."""
        return sum(b.activations for b in self.banks)

    @property
    def total_mitigation_busy_ns(self) -> float:
        """Time spent on victim-refresh row-ops across all banks."""
        return sum(b.mitigation_busy_ns for b in self.banks)

    def scheme_stats(self) -> dict[str, int]:
        """Merged stats across all per-bank scheme instances."""
        merged: dict[str, int] = {}
        for scheme in self.schemes:
            if scheme is None:
                continue
            for key, value in scheme.stats.snapshot().items():
                merged[key] = merged.get(key, 0) + value
        return merged
