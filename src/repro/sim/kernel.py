"""Build, cache and call the compiled bank-segment kernel (``kernel.c``).

The batched engine serves SCA, PRA, PRCAT, DRCAT and counter-cache bank
segments through :func:`serve_segment`: one C call per segment that
follows the scalar oracle access by access on flat register arrays
(DESIGN.md, "Batched engine").  Nothing here runs at import time.  On
first use the library is compiled with the system C compiler into a
per-user cache directory, keyed by the hash of the source and the flags
and published by atomic rename, then loaded with ctypes.  Without a
working compiler one notice is logged and :func:`serve_segment`
declines, so the engine serves those schemes per access instead.
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.core import counter_cache, counter_tree
from repro.core.cat import PRCATScheme
from repro.core.counter_cache import CounterCacheScheme
from repro.core.drcat import DRCATScheme
from repro.core.pra import PRAScheme
from repro.core.sca import SCAScheme
from repro.dram import bank as bank_module

SOURCE = Path(__file__).with_name("kernel.c")
#: Exact IEEE double arithmetic in source order: no FMA contraction, and
#: never ``-ffast-math``.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: Kernel scheme codes (``enum`` in ``kernel.c``); subclasses are not
#: served, since they may override ``access``.
_KINDS = {SCAScheme: 0, PRAScheme: 1, PRCATScheme: 2, DRCATScheme: 3, CounterCacheScheme: 4}
#: Events one call may buffer before it returns to be drained.
_EVENT_CAP = 1 << 16

logger = logging.getLogger(__name__)
#: The loaded entry point; ``False`` once it proved unavailable.
_entry = None


def check_rows(rows: np.ndarray, n_rows: int) -> None:
    """Vectorized equivalent of the scalar per-access row range check."""
    if len(rows) and (int(rows.min()) < 0 or int(rows.max()) >= n_rows):
        bad = rows[(rows < 0) | (rows >= n_rows)][0]
        raise ValueError(f"row {int(bad)} out of range for bank with {n_rows} rows")


def find_compiler() -> str | None:
    """The system C compiler on ``PATH``, if any."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dirs() -> list[Path]:
    """Candidate library directories, preferred first: the XDG cache,
    then a per-uid directory under the system temp dir."""
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return [Path(xdg) / "repro",
            Path(tempfile.gettempdir()) / f"repro-kernel-{os.getuid()}"]


def library_path() -> Path:
    """The cached library, compiled and published first if absent."""
    import subprocess

    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    name = f"kernel-{digest.hexdigest()[:16]}.so"
    for directory in cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if directory.stat().st_uid != os.getuid():
                continue
            target = directory / name
            if target.exists():
                return target
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
        except OSError:
            continue
        os.close(fd)
        try:
            compiler = find_compiler()
            if compiler is None:
                raise OSError("no C compiler (cc or gcc) on PATH")
            subprocess.run([compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
                           check=True, capture_output=True)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return target
    raise OSError("no writable kernel cache directory")


def _load():
    """The kernel entry point, or ``False`` (logged once) without one."""
    global _entry
    if _entry is None:
        import ctypes
        import subprocess

        try:
            entry = ctypes.CDLL(str(library_path())).repro_serve_segment
        except (OSError, subprocess.SubprocessError) as exc:
            stderr = getattr(exc, "stderr", b"") or b""
            logger.warning(
                "compiled kernel unavailable (%s%s); the batched engine "
                "serves every scheme per access",
                exc, f": {stderr.decode(errors='replace').strip()}" if stderr else "",
            )
            _entry = False
        else:
            pointer, int64 = ctypes.c_void_p, ctypes.c_int64
            entry.restype = int64
            entry.argtypes = [pointer] * 7 + [int64] * 2 + [pointer] * 2 + [int64, pointer]
            _entry = entry
    return _entry


def serve_segment(bank_state, scheme, times: np.ndarray, rows: np.ndarray):
    """Serve one bank segment in the kernel; ``None`` when it cannot.

    Updates the bank's and the scheme's registers and statistics as the
    per-access oracle would, and returns ``(events, done, reason)``:
    ``events`` holds one column per refresh command, in stream order,
    with rows ``(access position, low, high, rows refreshed)``; ``done``
    is the completion time of the access that emitted it, and
    ``reason`` the commands' tag.  The caller applies the memory
    system's totals and fires its ``on_refresh`` tap.
    """
    kind = _KINDS.get(type(scheme))
    if kind is None or not (entry := _load()):
        return None
    n = len(rows)
    check_rows(rows, scheme.n_rows)
    aux = None  # PRA's pre-drawn bits, or the counter cache's backing store
    threshold = scheme.refresh_threshold
    if kind == 0:
        group = scheme.group_size
        params = [group, group.bit_length() - 1 if group & (group - 1) == 0 else -1]
        regs = np.array(scheme._counts, dtype=np.int64)
    elif kind == 1:
        params = [scheme._cut]
        regs = np.zeros(1, dtype=np.int64)
        aux = np.ascontiguousarray(
            scheme._prng.next_bits_batch(scheme.random_bits, n), dtype=np.int64
        )
    elif kind == 4:
        params = [scheme.n_sets, scheme.n_ways, counter_cache.COUNTERS_PER_LINE]
        regs = scheme.registers()
        aux = scheme._memory_counters
    else:
        tree = scheme.tree
        thresholds = tree.thresholds
        threshold = thresholds.refresh_threshold
        params = [
            tree.n_counters, tree.max_levels, thresholds.presplit_levels,
            tree.n_rows.bit_length() - 1, int(tree.track_weights),
            scheme.max_levels if kind == 3 else 0,
            *(thresholds.threshold_for_level(lv) for lv in range(tree.max_levels)),
        ]
        regs = tree.registers()
    # The cfg[] layout of kernel.c: kind, rows, T, the module constants
    # (read per call, as the oracle reads them), then the scheme's own.
    config = np.array(
        [kind, scheme.n_rows, threshold, bank_module.BACKLOG_ESCALATION_ROWS,
         counter_tree.WEIGHT_MAX, counter_tree.WEIGHT_AFTER_SPLIT,
         counter_tree.HARVEST_BUDGET_PER_REFRESH, *params],
        dtype=np.int64,
    )
    timings = bank_state.timings
    bank_f = np.array([timings.t_rc, timings.row_refresh_ns, bank_state.free_at_ns,
                       bank_state.mitigation_busy_ns, bank_state.stall_ns])
    bank_i = np.array([bank_state.refresh_backlog_rows, bank_state.activations,
                       bank_state.rows_refreshed, bank_state.escalations], dtype=np.int64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if len(times) != n or (kind == 1 and len(aux) != n):
        raise ValueError(f"a segment needs one arrival time (and draw) per row, {n} rows")
    cap = min(2 * n, _EVENT_CAP) + 2
    stop = np.zeros(1, dtype=np.int64)
    chunks = []
    position = 0
    while not chunks or position < n:
        events = np.empty((4, cap), dtype=np.int64)
        done = np.empty(cap)
        count = entry(
            config.ctypes.data, regs.ctypes.data, bank_f.ctypes.data,
            bank_i.ctypes.data, times.ctypes.data, rows.ctypes.data,
            None if aux is None else aux.ctypes.data, position, n,
            events.ctypes.data, done.ctypes.data, cap, stop.ctypes.data,
        )
        if count == -2:
            raise MemoryError("kernel block map")
        if count < 0:
            raise RuntimeError("leaf mismatch during split repointing")
        chunks.append((events[:, :count], done[:count]))
        position = int(stop[0])
    events, done = chunks[0] if len(chunks) == 1 else (
        np.concatenate([e for e, _ in chunks], axis=1),
        np.concatenate([d for _, d in chunks]),
    )
    (bank_state.free_at_ns, bank_state.mitigation_busy_ns,
     bank_state.stall_ns) = bank_f[2:].tolist()
    (bank_state.refresh_backlog_rows, bank_state.activations,
     bank_state.rows_refreshed, bank_state.escalations) = bank_i.tolist()
    if kind == 0:
        scheme._counts = regs.tolist()
    elif kind == 4:
        scheme.load_registers(regs)
    elif kind in (2, 3):
        cascades = scheme.tree.load_registers(regs)
        if kind == 3:
            scheme.reconfigurations += cascades
    return events, done, "probabilistic" if kind == 1 else "threshold"
