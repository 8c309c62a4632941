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

import sys
from collections.abc import Callable

from repro.core.base import MitigationScheme, RefreshCommand, checked_register
from repro.dram.bank import BankState
from repro.dram.config import REFRESH_INTERVAL_S, SystemConfig


class MemorySystem:
    """The simulated banks of one system plus their mitigation engines.

    The banks are the one owner of a run's counts (activations, rows
    refreshed, stall and busy time); the system adds only the epoch
    clock and the refresh-command total.

    Parameters
    ----------
    config:
        System geometry and timings.
    scheme_factory:
        Callable ``(n_rows) -> MitigationScheme`` constructing one
        mitigation engine per bank.
    n_banks:
        How many banks to build, each with its scheme: the banks a run
        simulates, at most ``config``'s.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme_factory: Callable[[int], MitigationScheme],
        n_banks: int,
        epoch_s: float = REFRESH_INTERVAL_S,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        self.config = config
        self.banks = [BankState(config.timings) for _ in range(n_banks)]
        self.schemes = [scheme_factory(config.rows_per_bank) for _ in range(n_banks)]
        self._epoch_ns = epoch_s * 1e9
        self._next_epoch_ns = self._epoch_ns
        self.total_refresh_commands = 0
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
        done = bank_state.serve_access(time_ns)
        for cmd in self.schemes[bank].access(row):
            self.apply_refresh(bank_state, done, cmd, bank=bank)
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
        if self.on_refresh is not None:
            self.on_refresh(bank, time_ns, cmd, rows)

    def _advance_epochs(self, time_ns: float) -> None:
        while time_ns >= self._next_epoch_ns:
            for bank_state in self.banks:
                bank_state.reset_epoch()
            for scheme in self.schemes:
                scheme.on_interval_boundary()
            self._next_epoch_ns += self._epoch_ns
            self.epochs_completed += 1
            if self.on_epoch is not None:
                self.on_epoch(self.epochs_completed)

    # -- checkpointable state (see repro.api) ----------------------------

    def to_state(self) -> dict:
        """JSON-serializable capture: the epoch clock, the refresh-command
        total, and one bank state and one scheme state per bank.

        Observer taps are deliberately excluded: callbacks belong to a
        live session, not to the simulation state.
        """
        return {
            "next_epoch_ns": self._next_epoch_ns,
            "epochs_completed": self.epochs_completed,
            "total_refresh_commands": self.total_refresh_commands,
            "banks": [bank.to_state() for bank in self.banks],
            "schemes": [scheme.to_state() for scheme in self.schemes],
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite a freshly built system (same config/factory/banks).

        Raises ``ValueError`` naming the field unless ``banks`` and
        ``schemes`` each hold one state per bank, every scheme state is
        of the rebuilt scheme's kind, the epoch clock ``next_epoch_ns``
        is a finite positive time and the two counts are integers in
        ``[0, 2^63)``.
        """
        n_banks = len(self.banks)
        for name in ("banks", "schemes"):
            docs = state[name]
            if not isinstance(docs, list) or len(docs) != n_banks:
                raise ValueError(
                    f"memory state field {name!r}: needs a list of {n_banks} "
                    "state(s), one per simulated bank"
                )
        for scheme, doc in zip(self.schemes, state["schemes"]):
            kind = doc.get("scheme") if isinstance(doc, dict) else None
            if kind != scheme.name:
                raise ValueError(
                    f"memory state field 'schemes': state scheme {kind!r} "
                    f"does not match rebuilt scheme {scheme.name!r}"
                )
        clock = state["next_epoch_ns"]
        if type(clock) not in (int, float) or not 0 < clock <= sys.float_info.max:
            raise ValueError(
                f"memory state field 'next_epoch_ns': {clock!r} is not a "
                "finite positive time"
            )
        self.epochs_completed, self.total_refresh_commands = (
            checked_register("memory", name, state[name])
            for name in ("epochs_completed", "total_refresh_commands")
        )
        self._next_epoch_ns = float(clock)
        for bank, doc in zip(self.banks, state["banks"]):
            bank.restore_state(doc)
        for scheme, doc in zip(self.schemes, state["schemes"]):
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
    def total_rows_refreshed(self) -> int:
        """Rows refreshed by mitigation commands across all banks."""
        return sum(b.rows_refreshed for b in self.banks)

    @property
    def total_mitigation_busy_ns(self) -> float:
        """Time spent on victim-refresh row-ops across all banks."""
        return sum(b.mitigation_busy_ns for b in self.banks)
