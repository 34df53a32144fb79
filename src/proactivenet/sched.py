"""The compiled service kernel.

Every policy keeps the same state: the vector c of pending requests per
residual deadline, c[i] = requests with i slots left (i = 0 is due this
slot).  Each slot, arrivals land, service is applied, requests still at
residual 0 expire, and residual deadlines drop by one.  The slot is one C
function of `_kernel.c`, compiled with `cc` on first use and cached next to
this module under a SipHash of its source and command (`_build`), and it
has one driver, `path_outages`, which serves one config: `sim` runs a
whole group of paths in one call whose workers, the calling thread and
helper threads the call starts and joins, none taking the GIL, claim the
paths one at a time, draw each path's uniforms as numpy's PCG64 does, from
the state `sim` derives as numpy seeds it, one block of slots at a time,
and serve its arrivals, drawn from its uniforms, under every config of the
group, each config's state carried across blocks.
The library also fills the cdf and guide tables through which `sim` inverts
each count: `traffic.poisson_tables`, those of every Poisson stream of a
group in one call, and `traffic.binomial_table`, one per idle count, for a
multicast fresh demand, in one pass that an O(L) bound skips for most
tables over its budget, past which the slot walks the pmf with no table.
EDF fixes how much each class is served before any request is touched, so
the slot is one pass over c that serves, expires and shifts; the slot loop
is compiled once per policy shape, so no slot tests its policy.

Policies differ only in
  - the arrival source: Poisson counts of new requests per look-ahead, or
    multicast fresh demand over the idle sources (serving a pending source
    clears all of its requests at unit cost, so a source is pending or
    idle);
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

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = Path(__file__).with_name("__pycache__")
# fixed flags: no -march=native or -ffast-math, so results match across machines
_CC = ("cc", "-O2", "-shared", "-fPIC", "-pthread")
_lib = None  # the compiled kernels, loaded by the first simulation


def _build(source: Path, cache: Path) -> Path:
    """Compile `source` into `cache` once per (source, command); return the library.

    The file name hashes the source and the command, so an edited source
    builds a new file and removes the older ones, and os.replace lets
    racing processes both succeed.  The hash is the one Python keys
    hash-based .pyc files with (importlib.util.source_hash, SipHash, loaded
    at start-up), so that no process loads hashlib and OpenSSL to name the
    file; SipHash's key is the interpreter's bytecode magic number, so each
    Python version names its own file.
    The cache ignores sys.dont_write_bytecode: honouring it would recompile
    in every process.  If `cache` cannot be written, the library goes to a
    fresh temporary directory.
    """
    import importlib.util  # loaded by site at start-up: no cost

    key = importlib.util.source_hash(source.read_bytes() + " ".join(_CC).encode()).hex()
    lib = cache / f"_kernel-{key}.so"
    if lib.exists():
        return lib
    import subprocess  # imported here: only a process that compiles pays for it

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
    """The C kernels (the slot loop and the samplers), built and loaded on first use."""
    global _lib
    if _lib is None:
        path = _build(_SOURCE, _CACHE)
        lib = ctypes.CDLL(str(path))
        if path.parent != _CACHE:  # a temporary build: loaded, it is no longer needed
            shutil.rmtree(path.parent, ignore_errors=True)
        i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        lib.path_outages.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr]
        lib.group_run.argtypes = [i64, ptr, ptr, i64, ptr, i64, i64, ptr, ptr, ptr, i64, ptr]
        lib.poisson_tables.argtypes = [i64, ptr, ptr, ptr, ptr]
        lib.binomial_table.argtypes = [i64, dbl, i64, ptr, ptr, ptr]
        lib.binomial_least.argtypes = [i64, dbl, i64]
        lib.binomial_table.restype = lib.binomial_least.restype = i64
        for fn in (lib.path_outages, lib.group_run, lib.poisson_tables):
            fn.restype = None
        _lib = lib
    return _lib

