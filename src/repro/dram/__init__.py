"""DRAM substrate: configuration, banks, and the multi-bank memory system."""

from repro.dram.bank import BankState
from repro.dram.config import (
    DUAL_CORE_2CH,
    DUAL_CORE_4CH,
    NAMED_CONFIGS,
    QUAD_CORE_2CH,
    QUAD_CORE_4CH,
    REFRESH_INTERVAL_S,
    REGULAR_REFRESH_POWER_MW,
    ROW_REFRESH_ENERGY_NJ,
    DRAMTimings,
    SystemConfig,
)
from repro.dram.memory_system import MemorySystem

__all__ = [
    "BankState",
    "SystemConfig",
    "DRAMTimings",
    "DUAL_CORE_2CH",
    "DUAL_CORE_4CH",
    "QUAD_CORE_2CH",
    "QUAD_CORE_4CH",
    "NAMED_CONFIGS",
    "REFRESH_INTERVAL_S",
    "REGULAR_REFRESH_POWER_MW",
    "ROW_REFRESH_ENERGY_NJ",
    "MemorySystem",
]
