"""Earliest-deadline-first service of one whole sample path.

Every policy keeps the same state: the vector c of pending requests per
residual deadline, c[i] = requests with i slots left (i = 0 is due this
slot).  Each slot, arrivals land, service is applied, requests still at
residual 0 expire, and residual deadlines drop by one.  The slot is one C
function of `_kernel.c`, compiled with `cc` on first use and cached next to
this module: `serve_path` runs it over arrival matrices, `sim` over arrivals
drawn from a path's uniforms, a whole group of paths in one call whose
workers, the calling thread and helper threads started in C that never take
the GIL, claim the paths one at a time and draw each path's uniforms as
numpy's PCG64 does.
The library also fills the cdf and guide tables through which `sim` inverts
each count: `traffic.poisson_tables`, those of every Poisson stream of a
group in one call, and `traffic.binomial_table`, one per idle count, for a
multicast fresh demand, whose sizing refuses most tables over its budget
from an O(L) bound.
EDF fixes how much each class is served before any request is touched, so
the slot is one pass over c that serves, expires and shifts; `sim`'s slot
loop is compiled once per policy shape, so no slot tests its policy.

Policies differ only in
  - the arrival source: a count matrix of new requests per look-ahead, or
    multicast source presence (serving a pending source clears all of its
    requests at unit cost, so a source is pending or idle);
  - the primary capacity rule: C, or urgent + ceil(f * non-urgent) capped
    at C (the dynamic primary; f = 1 is selfish, i.e. plain C);
  - an optional all-urgent secondary stream served from the capacity the
    primary leaves;
  - refill (pi2): capacity left after the secondary goes back to the
    primary's non-urgent requests by EDF.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np


# pending backlogs beyond this abort the path as pathologically unstable
BACKLOG_OVERFLOW = 10**9

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = Path(__file__).with_name("__pycache__")
# fixed flags: no -march=native or -ffast-math, so results match across machines
_CC = ("cc", "-O2", "-shared", "-fPIC", "-pthread")
_lib = None  # the compiled kernels, loaded by the first simulation


class PathOverflowError(RuntimeError):
    """A path's backlog exceeded the overflow guard (unstable run)."""


def _build(source: Path, cache: Path) -> Path:
    """Compile `source` into `cache` once per (source, command); return the library.

    The file name hashes the source and the command, so an edited source
    builds a new file and removes the older ones, and os.replace lets
    racing processes both succeed.
    The cache ignores sys.dont_write_bytecode: honouring it would recompile
    in every process.  If `cache` cannot be written, the library goes to a
    fresh temporary directory.
    """
    import hashlib  # imported here: commands that never simulate
    import subprocess  # pay for neither

    key = hashlib.sha256(source.read_bytes() + " ".join(_CC).encode()).hexdigest()[:16]
    lib = cache / f"_kernel-{key}.so"
    if lib.exists():
        return lib
    # cc creates the output in a private directory: a file made beforehand
    # would hand the library its owner-only mode
    try:
        cache.mkdir(exist_ok=True)
        work = tempfile.mkdtemp(dir=cache)
    except OSError:
        lib = Path(tempfile.mkdtemp(prefix="proactivenet-")) / lib.name
        work = tempfile.mkdtemp(dir=lib.parent)
    try:
        tmp = os.path.join(work, lib.name)
        subprocess.run([*_CC, "-o", tmp, str(source)], check=True, capture_output=True, text=True)
        os.replace(tmp, lib)
    except FileNotFoundError:
        raise RuntimeError(f"the kernels need a C compiler: {_CC[0]!r} not found") from None
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"{_CC[0]!r} failed on {source.name}: {exc.stderr.strip()}") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for stale in lib.parent.glob("_kernel-*.so"):  # builds of earlier sources
        if stale != lib:
            with contextlib.suppress(OSError):
                stale.unlink()
    return lib


def _kernel() -> ctypes.CDLL:
    """The C kernels (the slot loops and the samplers), built and loaded on first use."""
    global _lib
    if _lib is None:
        path = _build(_SOURCE, _CACHE)
        lib = ctypes.CDLL(str(path))
        if path.parent != _CACHE:  # a temporary build: loaded, it is no longer needed
            shutil.rmtree(path.parent, ignore_errors=True)
        i64, dbl, ptr, flag = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_int
        lib.serve_path.argtypes = [ptr, ptr, dbl, i64, i64, i64, i64, dbl, ptr, flag, i64, ptr, ptr]
        lib.path_outages.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr]
        lib.group_open.argtypes = [i64]
        lib.group_open.restype = ptr
        lib.group_run.argtypes = [ptr, ptr, ptr, i64, ptr, i64, i64, ptr, ptr, ptr, ptr, ptr]
        lib.group_close.argtypes = [ptr]
        lib.poisson_tables.argtypes = [i64, ptr, ptr, ptr, ptr]
        lib.binomial_table.argtypes = [i64, dbl, i64, ptr, ptr, ptr]
        lib.binomial_least.argtypes = [i64, dbl, i64]
        lib.binomial_start.argtypes = [i64, dbl, ptr]
        lib.binomial_invert.argtypes = [ptr, i64, i64, dbl, ptr, ptr]
        lib.serve_path.restype = lib.binomial_table.restype = lib.binomial_least.restype = i64
        for fn in (lib.path_outages, lib.group_run, lib.group_close, lib.poisson_tables,
                   lib.binomial_start, lib.binomial_invert):
            fn.restype = None
        _lib = lib
    return _lib


def serve_path(
    arrivals: np.ndarray,
    C: int,
    *,
    multicast_T: int | None = None,
    f: float = 1.0,
    secondary: np.ndarray | None = None,
    refill: bool = False,
) -> np.ndarray:
    """Run one path and return its per-slot expired counts per class.

    arrivals: a (slots, T+1) matrix of non-negative integer counts, column k
      holding the requests that arrive with look-ahead k; or, when
      `multicast_T` is given, a (slots, L) boolean source-presence matrix.
      Each idle source demanded in a slot becomes pending with deadline
      `multicast_T`; demand for a pending source aligns with it.  Presence
      of different sources is independent, so the fresh demand is read as
      the present sources among the first L - pending columns.
    f: the primary serves at most urgent + ceil(f * non-urgent), capped
      at C; f >= 1 grants it all of C.
    secondary: per-slot counts of an all-urgent class served from C minus
      what the primary served.
    refill: hand capacity left after the secondary back to the primary.

    Raises PathOverflowError once the pending backlog of a slot exceeds
    BACKLOG_OVERFLOW, and RuntimeError if the kernel cannot be compiled.

    Returns a (slots, 1) int64 array, or (slots, 2) with a secondary; a slot
    is an outage for a class iff its entry is positive.
    """
    # the kernel reads raw pointers: hand it C-ordered arrays of its dtypes
    # only, and presence as booleans, so that at most L sources are pending
    unicast = multicast_T is None
    grid = np.ascontiguousarray(arrivals, dtype=np.int64 if unicast else np.bool_)
    if grid.ndim != 2:
        raise ValueError(f"arrivals must be a (slots, columns) matrix, got shape {grid.shape}")
    slots, width = grid.shape
    T = width - 1 if unicast else multicast_T
    if T < 0 or not 0 <= C < 2**63:
        raise ValueError(f"need a window T >= 0 and an int64 capacity C >= 0, got {T}, {C}")
    if not f >= 0:
        raise ValueError(f"need a service fraction f >= 0, got {f}")
    if secondary is not None:
        secondary = np.ascontiguousarray(secondary, dtype=np.int64)
        if secondary.shape != (slots,):
            raise ValueError(f"secondary must hold {slots} slot counts, got {secondary.shape}")
    presence = None if unicast else np.where(grid, 0.0, 1.0)  # uniforms below 1/2
    c = np.zeros(T + 1, dtype=np.int64)
    expired = np.empty((slots, 1 if secondary is None else 2), dtype=np.int64)
    tripped = _kernel().serve_path(
        grid.ctypes.data if unicast else None,
        None if unicast else presence.ctypes.data, 0.5,
        slots, width, int(T), int(C), float(f),
        None if secondary is None else secondary.ctypes.data,
        int(refill), BACKLOG_OVERFLOW, c.ctypes.data, expired.ctypes.data,
    )
    if tripped:
        raise PathOverflowError(f"backlog overflow at slot {tripped}")
    return expired
