"""Earliest-deadline-first service of one whole sample path.

Every policy keeps the same state: the vector c of pending requests per
residual deadline, c[i] = requests with i slots left (i = 0 is due this
slot).  Each slot, arrivals land, service is applied, requests still at
residual 0 expire, and residual deadlines drop by one.  The loop runs only
through busy periods; slots that an empty system clears settle at once.

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

import math

import numpy as np


# pending backlogs beyond this abort the path as pathologically unstable
BACKLOG_OVERFLOW = 10**9


class PathOverflowError(RuntimeError):
    """A path's backlog exceeded the overflow guard (unstable run)."""


def _edf(c: list[int], cap: int) -> int:
    """Serve up to `cap` requests of `c` in deadline order; return the count."""
    left = cap
    k = 0  # counted by hand: enumerate() costs ~10% of a busy path
    for ck in c:
        if ck >= left:
            c[k] = ck - left
            return cap
        c[k] = 0
        left -= ck
        k += 1
    return cap - left


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

    arrivals: a (slots, T+1) integer matrix, column k holding the requests
      that arrive with look-ahead k; or, when `multicast_T` is given, a
      (slots, L) boolean source-presence matrix.  Each idle source demanded
      in a slot becomes pending with deadline `multicast_T`; demand for a
      pending source aligns with it.  Presence of different sources is
      independent, so the fresh demand is read as the present sources
      among the first L - pending columns.
    f: the primary serves at most urgent + ceil(f * non-urgent), capped
      at C; f = 1 grants it all of C.
    secondary: per-slot counts of an all-urgent class served from C minus
      what the primary served.
    refill: hand capacity left after the secondary back to the primary.

    Raises PathOverflowError once the pending backlog of a slot exceeds
    BACKLOG_OVERFLOW.

    Returns a (slots, 1) int64 array, or (slots, 2) with a secondary; a slot
    is an outage for a class iff its entry is positive.
    """
    arrivals = np.asarray(arrivals)
    if secondary is not None:
        secondary = np.asarray(secondary)
    T = arrivals.shape[1] - 1 if multicast_T is None else multicast_T
    if T < 0 or C < 0:
        raise ValueError(f"need a window T >= 0 and capacity C >= 0, got {T}, {C}")
    slots = arrivals.shape[0]
    limit = BACKLOG_OVERFLOW
    dynamic = f < 1.0
    expired = np.zeros((slots, 1 if secondary is None else 2), dtype=np.int64)
    # settled: slots an empty system clears (at T = 0, all the guard passes); met
    # in a busy period such a slot loses no less, and the loop writes its losses
    fresh = np.einsum("ij->i", arrivals, dtype=np.int64)  # ~5x faster than .sum(axis=1) here
    settled = fresh <= (min(C, limit) if T else limit)
    if dynamic and T:  # urgent + ceil(f * non-urgent) must cover the non-urgent
        later = fresh if multicast_T is not None else fresh - arrivals[:, 0]
        settled &= np.ceil(f * later) >= later
    if secondary is not None:
        settled |= refill & (fresh + secondary <= min(C, limit))
        np.maximum(np.minimum(fresh, C) - C + secondary, 0, out=expired[:, 1], where=settled)
    np.maximum(np.subtract(fresh, C, out=fresh), 0, out=expired[:, 0], where=settled)
    settled = settled.tobytes()  # bytes.find jumps to the next unsettled slot
    fresh = later = None  # free the int64 temporaries before the loop's lists
    n = settled.find(0)
    if n < 0:  # no busy period
        return expired

    if multicast_T is None:
        # only the look-ahead columns that ever see an arrival
        columns = [(k, arrivals[:, k].tolist()) for k in range(T + 1) if arrivals[:, k].any()]
    else:
        L = arrivals.shape[1]
        idle_present = np.zeros((slots, L + 1), dtype=np.int32)
        np.cumsum(arrivals, axis=1, out=idle_present[:, 1:])
    sec = None if secondary is None else secondary.tolist()
    c = [0] * (T + 1)
    total = 0
    while n >= 0:
        for n in range(n, slots):
            if multicast_T is None:
                for k, col in columns:
                    a = col[n]
                    c[k] += a
                    total += a
            else:
                a = idle_present.item(n, L - total)
                c[T] += a
                total += a
            if total > limit:
                raise PathOverflowError(f"backlog overflow at slot {n + 1}")
            cap = C
            if dynamic and (want := c[0] + math.ceil(f * (total - c[0]))) < C:
                cap = want  # not min(C, want): that call costs ~15% of a dynamic path
            if total <= cap:
                served = total
                c = [0] * (T + 1)
            else:
                served = _edf(c, cap)
            total -= served
            if sec is not None:
                q, spare = sec[n], C - served
                if q > spare:
                    expired[n, 1] = q - spare
                elif refill and total and q < spare:
                    total -= _edf(c, spare - q)
            lost = c[0]
            if lost:
                expired[n, 0] = lost
                total -= lost
            del c[0]
            c.append(0)
            if not total:  # the busy period ends with this slot
                break
        n = settled.find(0, n + 1)
    return expired
