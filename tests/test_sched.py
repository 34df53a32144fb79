import math
import os
import subprocess
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proactivenet import cli, sched, sim
from proactivenet.sim import SimConfig
from proactivenet.traffic import LookaheadLaw, MulticastSpec, Regime

# a backlog c[0..T]: pending requests per residual deadline
backlogs = st.lists(st.integers(0, 20), min_size=1, max_size=6)
# short random paths: (slots, T+1) arrival counts
paths = st.integers(0, 4).flatmap(
    lambda T: st.lists(
        st.lists(st.integers(0, 6), min_size=T + 1, max_size=T + 1),
        min_size=1,
        max_size=12,
    )
)


def edf_by_bucket(c, cap):
    """Reference EDF step: serve up to `cap` of `c` by deadline; return the count."""
    left = cap
    for k, ck in enumerate(c):
        if ck >= left:
            c[k] = ck - left
            return cap
        c[k] = 0
        left -= ck
    return cap - left


def serve_path_by_slot(arrivals, C, *, multicast_T=None, f=1.0, secondary=None,
                       refill=False, pending=None):
    """Reference: the kernel run slot by slot over every slot of the path.

    A list `pending` receives, per slot, the primary requests that arrive
    in it and the pending total once they have."""
    arrivals = np.asarray(arrivals)
    T = arrivals.shape[1] - 1 if multicast_T is None else multicast_T
    slots = arrivals.shape[0]
    expired = np.zeros((slots, 1 if secondary is None else 2), dtype=np.int64)
    if multicast_T is not None:
        L = arrivals.shape[1]
        idle_present = np.zeros((slots, L + 1), dtype=np.int64)
        np.cumsum(arrivals, axis=1, out=idle_present[:, 1:])
    c = [0] * (T + 1)
    total = 0
    for n in range(slots):
        before = total
        if multicast_T is None:
            for k in range(T + 1):
                a = int(arrivals[n, k])
                c[k] += a
                total += a
        else:
            a = int(idle_present[n, L - total])
            c[T] += a
            total += a
        if pending is not None:
            pending.append((total - before, total))
        cap = C
        if f < 1.0:
            cap = min(C, c[0] + math.ceil(f * (total - c[0])))
        if total <= cap:
            served = total
            c = [0] * (T + 1)
        else:
            served = edf_by_bucket(c, cap)
        total -= served
        if secondary is not None:
            q, spare = int(secondary[n]), C - served
            if q > spare:
                expired[n, 1] = q - spare
            elif refill and total and q < spare:
                total -= edf_by_bucket(c, spare - q)
        lost = c[0]
        if lost:
            expired[n, 0] = lost
            total -= lost
        del c[0]
        c.append(0)
    return expired


def record(slots, C, *, T=0, warmup=0, L=0, streams=None, nprimary=0, secondary=False,
           idle=None):
    """A config record of path_outages, its fields in the order of _kernel.c's
    enum: the addresses of its stream rows and of its multicast draw rows
    (`traffic.binomial_table`'s), or 0: a multicast config without draw rows
    walks the pmf."""
    def at(a):
        return 0 if a is None else a.ctypes.data

    return (slots, L, at(streams), nprimary, int(secondary), T, C, warmup, at(idle))


def run_configs(u, records, rates, T):
    """The outages of one path_outages call over the uniforms u under the
    configs `records`, each with its (A, f) of `rates`: each config's three
    outage counters.  The workspace of T + 1 entries starts dirty, as a
    group's earlier configs leave it."""
    u = np.ascontiguousarray(u, dtype=float)
    records = np.array(records, dtype=np.int64)
    rates = np.array(rates, dtype=float)
    c = np.full(T + 1, 7, dtype=np.int64)
    outages = np.zeros((len(records), 3), np.int64)
    sched._kernel().path_outages(u.ctypes.data, len(records), records.ctypes.data,
                                 rates.ctypes.data, c.ctypes.data, outages.ctypes.data)
    return outages


def ranked_tables(values):
    """Draw tables that feed the kernel chosen counts.

    values is a (slots, width) count matrix whose distinct rows V[0], ...,
    V[r - 1] are ordered entry by entry.  Returns (u, rows, arrays): slot
    n's uniform u[n] = j / r, for its row V[j], and per column i a row (0,
    lo, m, F, g) of path_outages, the cdf window F[k - lo] = #{l : V[l, i]
    <= k} / r with its guide table g, both in `arrays`.  The kernel draws
    min{k : F(k) > u}, so u = j / r = F(V[j, i] - 1) draws V[j, i], and u =
    0 draws lo.
    """
    values = np.asarray(values, dtype=np.int64)
    # rows ordered entry by entry are ordered by their sums, equal where those are
    _, first, rank = np.unique(values.sum(axis=1), return_index=True, return_inverse=True)
    V = values[first]
    assert np.array_equal(V[rank], values) and (np.diff(V, axis=0) >= 0).all()
    r, rows, arrays = len(V), np.zeros((values.shape[1], 5), dtype=np.int64), []
    for i, col in enumerate(V.T):
        lo, m = col[0], col[-1] - col[0] + 1
        F = np.searchsorted(col, np.arange(lo, lo + m), side="right") / r
        g = np.searchsorted(np.floor(F * m), np.arange(m))  # min{j : floor(F[j] m) >= b}
        rows[i] = 0, lo, m, F.ctypes.data, g.ctypes.data
        arrays += F, g
    return rank / r, rows, arrays


def compiled(*, multicast_T=None, f=1.0, secondary=None, refill=False):
    """Whether path_outages serves this shape as serve_path_by_slot does:
    without a secondary the primary has all of C (f >= 1), and a secondary
    is refilled after iff the primary is multicast (pi2)."""
    if secondary is None:
        return f >= 1.0
    return refill == (multicast_T is not None)


def kernel_outages(arrivals, C, *, multicast_T=None, f=1.0, secondary=None, refill=False):
    """Per-slot outage indicators per class of the path serve_path_by_slot
    serves, from the production path_outages, for a shape it compiles.

    Config n is the path's first n + 1 slots with warm-up n, so it counts
    slot n's outage alone.  Its records are written directly, and its
    counts fed by inversion (`ranked_tables`): one Poisson stream per
    look-ahead column, or a multicast fresh demand per idle count, the
    present sources among the first idle columns (so the rows of these
    counts must be ordered, as nested presence rows are).
    """
    assert compiled(multicast_T=multicast_T, f=f, secondary=secondary, refill=refill)
    arrivals = np.asarray(arrivals, dtype=np.int64)
    slots, width = arrivals.shape
    if multicast_T is None:
        T, L = width - 1, 0
        draws = [ranked_tables(arrivals[:, [k]]) for k in range(width)]
    else:
        T, L = multicast_T, width
        fresh = np.zeros((slots, L + 1), dtype=np.int64)
        np.cumsum(arrivals, axis=1, out=fresh[:, 1:])
        draws = [ranked_tables(fresh)]
    if secondary is not None:
        draws.append(ranked_tables(np.reshape(secondary, (-1, 1))))
    fed = draws[1:] if L else draws  # the Poisson streams: all but a multicast fresh demand
    streams = np.vstack([np.zeros((0, 5), np.int64)] + [rows for _, rows, _ in fed])
    nprimary = 0 if L else width
    streams[:nprimary, 0] = range(nprimary)  # each primary stream's look-ahead column
    out = np.zeros((slots, 2), dtype=bool)
    for n in range(slots):
        u = np.concatenate([uniforms[:n + 1] for uniforms, _, _ in draws])
        config = record(n + 1, C, T=T, warmup=n, L=L, streams=streams, nprimary=nprimary,
                        secondary=secondary is not None, idle=draws[0][1] if L else None)
        out[n] = run_configs(u, [config], [(0.5, f)], T)[0, :2] > 0
    return out[:, :1 if secondary is None else 2]


def expire(arrivals, C, **kw):
    """serve_path_by_slot's per-slot expired counts, once the kernel
    (`kernel_outages`) has reported an outage in exactly the slots and
    classes where they are positive, for every shape it compiles."""
    expired = serve_path_by_slot(arrivals, C, **kw)
    if compiled(**kw):
        assert np.array_equal(kernel_outages(arrivals, C, **kw), expired > 0)
    return expired


def one_slot(b, C, f=1.0, q=None, refill=False):
    """Expired counts of a one-slot path whose arrivals are the backlog b."""
    sec = None if q is None else [q]
    return expire([b], C, f=f, secondary=sec, refill=refill)[0].tolist()


def served(b, C, f=1.0):
    """Primary requests served in one slot of backlog b.

    A probe secondary of C + 1 urgent requests takes whatever capacity the
    primary leaves and always loses served + 1 of them.  The kernel tells
    only whether a class lost any: a secondary of q requests loses some iff
    q > C - served, so it serves as many iff q = C - served loses none and
    q + 1 does.
    """
    n = one_slot(b, C, f, q=C + 1)[1] - 1
    lost = [kernel_outages([b], C, f=f, secondary=[q])[0, 1] for q in (C - n, C - n + 1)]
    assert lost == [False, True]
    return n


def multicast(presence, C, T, **kw):
    return expire(np.asarray(presence, dtype=bool), C, multicast_T=T, **kw)


class TestEdfServe:
    def test_two_bucket_split(self):
        # one urgent and one of the three later requests
        assert one_slot([1, 3], 2) == [0]
        assert served([1, 3], 2) == 2

    def test_deficit_expires(self):
        assert one_slot([5, 0], 3) == [2]

    def test_empty_system(self):
        assert one_slot([0, 0], 4) == [0]
        assert served([0, 0], 4) == 0

    @given(backlogs, st.integers(0, 30))
    def test_work_conserving(self, b, cap):
        # capacity is left over only once the backlog is empty
        assert served(b, cap) == min(cap, sum(b))

    @given(backlogs, st.integers(0, 30))
    def test_expired_monotone_in_capacity(self, b, cap):
        assert one_slot(b, cap) >= one_slot(b, cap + 1)

    @given(backlogs, st.integers(0, 30))
    def test_outcome_consistency(self, b, cap):
        # urgent requests are served first; the rest of them expire
        assert one_slot(b, cap) == [max(b[0] - cap, 0)]
        assert 0 <= served(b, cap) <= cap

    @given(paths, st.integers(0, 8))
    def test_expired_monotone_in_capacity_on_paths(self, arr, C):
        small = expire(arr, C)[:, 0]
        large = expire(arr, C + 1)[:, 0]
        assert small.sum() >= large.sum()


@given(st.lists(st.integers(0, 12), min_size=1, max_size=12), st.integers(0, 8),
       st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.data())
def test_window_zero_matches_the_slot_loop(a, C, f, refill, data):
    # a window of length 0 has no busy period; the same arrivals, all
    # urgent, in a window of length 1 run through the slot loop
    q = data.draw(st.lists(st.integers(0, 6), min_size=len(a), max_size=len(a)))
    flat = expire([[x] for x in a], C, f=f, secondary=q, refill=refill)
    loop = expire([[x, 0] for x in a], C, f=f, secondary=q, refill=refill)
    assert np.array_equal(flat, loop)


class TestAdvanceSlot:
    # with C = 0 nothing is served, so each request expires exactly when its
    # residual deadline reaches 0
    def test_shift_and_insert(self):
        arr = [[0, 2], [0, 3], [0, 0]]
        assert expire(arr, 0)[:, 0].tolist() == [0, 2, 3]

    def test_urgent_insertion(self):
        assert expire([[4, 0, 0]], 0)[:, 0].tolist() == [4]

    def test_zero_shift(self):
        assert expire(np.zeros((5, 4), dtype=int), 0)[:, 0].tolist() == [0] * 5

    def test_out_of_range_lookahead(self):
        # a negative window or capacity is refused where a config is made
        with pytest.raises(ValueError):
            LookaheadLaw.deterministic(-1)
        with pytest.raises(ValueError):
            SimConfig(C=-1, policy="reactive", slots=10, seed=0, warmup=0)


class TestDynamicCapacity:
    def test_half_fraction_ceiling(self):
        assert served([3, 4], 10, 0.5) == 5
        # ceiling: 3 + ceil(1.5)
        assert served([3, 3], 10, 0.5) == 5

    def test_f1_capped(self):
        assert served([3, 4], 5, 1.0) == 5

    def test_f0_urgent_only(self):
        assert served([3, 4], 10, 0.0) == 3


class TestTwoClass:
    def test_selfish_trace(self):
        assert served([2, 1], 4) == 3
        assert one_slot([2, 1], 4, q=2) == [0, 1]

    def test_dynamic_leaves_room(self):
        assert served([0, 4], 4, 0.5) == 2
        assert one_slot([0, 4], 4, 0.5, q=2) == [0, 0]

    def test_no_secondary_no_outage(self):
        assert one_slot([5, 5], 4, q=0)[1] == 0

    @given(paths, st.integers(1, 8), st.data())
    def test_dynamic_f1_equals_selfish(self, arr, C, data):
        # the dynamic rule with f just below 1 grants min(C, backlog), which
        # serves exactly what the selfish primary with all of C serves
        q = data.draw(st.lists(st.integers(0, 5), min_size=len(arr), max_size=len(arr)))
        f = math.nextafter(1.0, 0.0)
        dyn = expire(arr, C, f=f, secondary=q)
        selfish = expire(arr, C, secondary=q)
        assert np.array_equal(dyn, selfish)

    @given(backlogs, st.integers(0, 10), st.integers(1, 20))
    def test_capacity_partition(self, b, q, C):
        p = served(b, C)
        lost = one_slot(b, C, q=q)[1]
        assert p + (q - lost) <= C
        # the secondary loses requests only once all of C is in use
        assert lost == 0 or p + (q - lost) == C


class TestMulticast:
    def test_edf_order(self):
        # two sources demanded every slot, one service per slot, window 1:
        # the source left over becomes urgent, absorbs its new demand and is
        # served before the fresh one, so nothing ever expires
        assert multicast(np.ones((10, 2)), 1, 1)[:, 0].tolist() == [0] * 10

    def test_deficit(self):
        assert multicast([[1, 1, 1]], 2, 0)[:, 0].tolist() == [1]
        # three sources, one service: every other slot one of them expires
        out = multicast(np.ones((6, 3)), 1, 1)[:, 0].tolist()
        assert out == [0, 1, 0, 1, 0, 1]

    def test_empty(self):
        assert not multicast(np.zeros((5, 4)), 2, 2).any()

    def test_serving_clears_source(self):
        # unserved, a source demanded every slot is one request that expires
        # once per window; served, it is idle again the next slot
        assert multicast(np.ones((6, 1)), 0, 2)[:, 0].tolist() == [0, 0, 1, 0, 0, 1]
        assert not multicast(np.ones((6, 1)), 1, 2).any()

    def test_fresh_demand_reads_idle_columns(self):
        # one pending source of two: only the first column counts as fresh
        pres = [[True, False], [False, True]]
        assert multicast(pres, 0, 1)[:, 0].tolist() == [0, 1]


def pi2(presence, C, T, q):
    return multicast(presence, C, T, f=0.0, secondary=q, refill=True)


class TestPi2:
    def test_urgent_multicast_first(self):
        assert pi2([[1]], 3, 0, [3]).tolist() == [[0, 1]]
        # an urgent source takes the only service unit from the unicast
        out = pi2(np.ones((4, 1)), 1, 1, [1, 1, 1, 1])
        assert out.tolist() == [[0, 0], [0, 1], [0, 0], [0, 1]]

    def test_exact_fit(self):
        assert pi2(np.zeros((1, 2)), 3, 0, [3]).tolist() == [[0, 0]]

    def test_multicast_deficit(self):
        assert pi2([[1, 1]], 1, 0, [0]).tolist() == [[1, 0]]

    def test_leftover_goes_to_later_multicast(self):
        pres, q = [[1], [0]], [1, 2]
        assert pi2(pres, 2, 1, q).tolist() == [[0, 0], [0, 0]]
        # without refill the source is still pending when two unicast
        # requests arrive, and one of them is lost
        kept = multicast(pres, 2, 1, f=0.0, secondary=q)
        assert kept.tolist() == [[0, 0], [0, 1]]

    @given(st.lists(st.integers(0, 8), min_size=2, max_size=5), st.integers(0, 8),
           st.integers(1, 10))
    def test_priority_order(self, b, q, C):
        # slot 0: urgent multicast, then unicast, then later multicast by
        # EDF.  Slot 1 (no arrivals) reads off what is left at residual 1:
        # a probe of C + 1 unicast requests loses served + 1 of them.
        arr = [b, [0] * len(b)]
        out = expire(arr, C, f=0.0, secondary=[q, C + 1], refill=True).tolist()
        urgent = min(b[0], C)
        leftover = max(C - urgent - q, 0)
        assert out[0] == [b[0] - urgent, max(q - (C - urgent), 0)]
        assert out[1][0] + out[1][1] - 1 == b[1] - min(b[1], leftover)


def test_edf_equals_fcfs_under_deterministic_window():
    # with a single deterministic look-ahead, per-slot expirations match a
    # FIFO-by-arrival-slot reference implementation
    rng = np.random.default_rng(11)
    T, C, slots = 3, 2, 400
    arrivals = rng.poisson(1.7, slots)

    arr = np.zeros((slots, T + 1), dtype=np.int64)
    arr[:, T] = arrivals
    edf_expired = expire(arr, C)[:, 0].tolist()

    fifo_expired = []
    queue = []  # (arrival slot) per request, FIFO
    for n in range(slots):
        queue.extend([n] * int(arrivals[n]))
        served = 0
        while queue and served < C:
            queue.pop(0)
            served += 1
        exp = sum(1 for a in queue if a + T == n)
        fifo_expired.append(exp)
        queue = [a for a in queue if a + T > n]

    assert edf_expired == fifo_expired


kernel_options = st.fixed_dictionaries({
    "f": st.sampled_from([0.0, 0.5, 1.0]),
    "refill": st.booleans(),
    "with_secondary": st.booleans(),
})


def _options(data, slots, opts):
    kw = {"f": opts["f"], "refill": opts["refill"]}
    if opts["with_secondary"]:
        kw["secondary"] = np.asarray(data.draw(
            st.lists(st.integers(0, 6), min_size=slots, max_size=slots)))
    return kw


class TestSettledSlots:
    """The kernel against the reference slot loop, on paths that mix slots an
    empty system clears with busy periods."""

    @given(st.integers(0, 4), st.integers(1, 40), st.integers(0, 8), kernel_options,
           st.data())
    def test_unicast_paths(self, T, slots, C, opts, data):
        # arrivals scaled to C, so that paths mix settled and busy slots
        arr = np.asarray(data.draw(st.lists(
            st.lists(st.integers(0, max(C, 1)), min_size=T + 1, max_size=T + 1),
            min_size=slots, max_size=slots)))
        expire(arr, C, **_options(data, slots, opts))

    @given(st.integers(0, 3), st.integers(1, 40), st.integers(1, 8), st.integers(0, 6),
           kernel_options, st.data())
    def test_multicast_presence(self, T, slots, L, C, opts, data):
        # nested presence rows, a source present in a slot iff its weight
        # lies below the slot's level, so that the kernel's fresh demand, a
        # count per idle number of sources, can be fed them
        weight = np.asarray(data.draw(st.lists(st.integers(0, 9), min_size=L, max_size=L)))
        level = np.asarray(data.draw(st.lists(st.integers(0, 10), min_size=slots,
                                              max_size=slots)))
        pres = weight[None, :] < level[:, None]
        expire(pres, C, multicast_T=T, **_options(data, slots, opts))

    def test_all_slots_settled(self):
        arr = [[1, 2], [0, 3], [2, 0], [0, 0]]
        expire(arr, 3, secondary=np.array([4, 0, 2, 5]))
        assert not expire(arr, 3).any()

    def test_no_slot_settled(self):
        arr = [[3, 3]] * 6
        expire(arr, 2, f=0.5, secondary=np.full(6, 2))
        assert expire(arr, 2)[:, 0].tolist() == [1, 4, 4, 4, 4, 4]

    def test_busy_period_open_at_the_last_slot(self):
        # the last slot leaves two requests pending: the path ends busy
        arr = [[0, 1], [0, 0], [0, 5]]
        expire(arr, 3, secondary=np.array([0, 3, 1]))
        assert expire(arr, 3)[:, 0].tolist() == [0, 0, 0]

    def test_busy_periods_that_touch(self):
        # slot 0 ends its busy period with an expiry, and slot 1 opens the
        # next one from the empty state it leaves
        arr = [[3, 0], [0, 4], [0, 0], [0, 1]]
        expire(arr, 2, secondary=np.array([1, 0, 1, 0]))
        assert expire(arr, 2)[:, 0].tolist() == [1, 0, 0, 0]

    def test_settled_slot_inside_a_busy_period(self):
        # slot 1 fits C from empty but meets slot 0's backlog: the secondary
        # loses what the empty-state outcome would not
        arr = [[0, 3], [0, 1], [0, 0]]
        q = np.array([0, 1, 0])
        assert expire(arr, 2, secondary=q).tolist() == [[0, 0], [0, 1], [0, 0]]


class TestPendingBound:
    """A request expires T + 1 slots after it arrives at the latest, so the
    pending total never exceeds the arrivals of the last T + 1 slots: the
    bound the kernel's int64 counts rest on, under any load."""

    @staticmethod
    def assert_bounded(T, pending, L=None):
        landed = np.array([a for a, _ in pending])
        window = [landed[max(0, n - T):n + 1].sum() for n in range(len(pending))]
        assert all(total <= w for (_, total), w in zip(pending, window))
        assert L is None or max(total for _, total in pending) <= L

    @given(st.integers(0, 4), st.integers(1, 30), st.integers(0, 4), kernel_options, st.data())
    def test_unicast_paths_beyond_capacity(self, T, slots, C, opts, data):
        # counts up to 5 C + 5 a slot: rates far above C as well as below it
        arr = np.asarray(data.draw(st.lists(
            st.lists(st.integers(0, 5 * C + 5), min_size=T + 1, max_size=T + 1),
            min_size=slots, max_size=slots)))
        pending = []
        serve_path_by_slot(arr, C, pending=pending, **_options(data, slots, opts))
        self.assert_bounded(T, pending)

    @given(st.integers(0, 3), st.integers(1, 30), st.integers(1, 12), st.integers(0, 3),
           kernel_options, st.data())
    def test_multicast_paths_beyond_capacity(self, T, slots, L, C, opts, data):
        pres = np.asarray(data.draw(st.lists(st.lists(st.booleans(), min_size=L, max_size=L),
                                             min_size=slots, max_size=slots)))
        pending = []
        serve_path_by_slot(pres, C, multicast_T=T, pending=pending, **_options(data, slots, opts))
        self.assert_bounded(T, pending, L)


class TestKernelInputs:
    """Corners of the kernel's inputs: no capacity, and a workspace an earlier
    path left busy."""

    rng = np.random.default_rng(5)
    counts = rng.poisson(1.5, (30, 3))
    presence = np.arange(21)[None, :] < rng.integers(0, 22, 30)[:, None]  # nested rows
    q = rng.poisson(0.8, 30)

    def test_zero_capacity(self):
        # the secondary loses every request
        assert expire(self.counts, 0, secondary=self.q)[:, 1].tolist() == self.q.tolist()
        pi2 = expire(self.presence, 0, multicast_T=2, f=0.0, secondary=self.q, refill=True)
        assert pi2[:, 1].tolist() == self.q.tolist()
        expire(self.presence, 0, multicast_T=2)

    def test_interleaved_calls_leave_no_state(self):
        # each config of a call starts from an empty workspace, whatever an
        # earlier one left in it: a path left busy at its last slot does not
        # leak into the next
        busy = expire(self.counts, 1)
        outages = run_configs(np.zeros(5), [record(5, 1, T=2)], [(0.0, 1.0)], 2)
        assert not outages.any()
        assert np.array_equal(expire(self.counts, 1), busy)


def test_the_library_exports_what_sim_and_traffic_call(monkeypatch):
    # a group with every draw table: Poisson streams, and multicast fresh
    # demand through per-idle tables and, over their budget, by the walk
    lib, called = sched._kernel(), set()

    class Spy:
        def __getattr__(self, name):
            called.add(name)
            return getattr(lib, name)

    monkeypatch.setattr(sched, "_kernel", Spy)
    common = dict(C=4, seed=1, slots=300, warmup=100, law=LookaheadLaw.deterministic(1))
    sim.estimate_outages([
        SimConfig(**common, policy="dynamic", regime=Regime("linear", 0.6),
                  secondary=Regime("linear", 0.1)),
        *(SimConfig(**common, policy="pi2", regime=Regime("linear", 0.05),
                    multicast=MulticastSpec(0.9, theta)) for theta in (15.0, 3000.0)),
    ], 2)
    monkeypatch.undo()
    nm = subprocess.run(["nm", "-D", "--defined-only", lib._name], check=True,
                        capture_output=True, text=True).stdout
    exported = {line.split()[2] for line in nm.splitlines() if line.split()[1] == "T"}
    # the hand traces run the slot loop on chosen counts
    assert exported == called | {"path_outages"} == {
        "binomial_least", "binomial_table", "group_run", "path_outages", "poisson_tables"}


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache, and no kernel loaded yet."""
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(sched, "_CACHE", cache)
    monkeypatch.setattr(sched, "_lib", None)
    return cache


class TestKernelBuild:
    arr = [[0, 3], [1, 1], [2, 0]]

    def test_second_load_reuses_the_cached_library(self, fresh_cache, monkeypatch):
        first = kernel_outages(self.arr, 1)
        built = list(fresh_cache.iterdir())
        assert [p.name.startswith("_kernel-") and p.suffix == ".so" for p in built] == [True]

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiled again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(sched, "_lib", None)
        assert np.array_equal(kernel_outages(self.arr, 1), first)
        assert list(fresh_cache.iterdir()) == built

    def test_edited_source_builds_a_new_library(self, tmp_path):
        # and removes the stale one: the cache holds the newest build only
        edited = tmp_path / "_kernel.c"
        edited.write_bytes(sched._SOURCE.read_bytes() + b"/* edited */\n")
        cache = tmp_path / "cache"
        first = sched._build(sched._SOURCE, cache)
        newest = sched._build(edited, cache)
        assert newest != first
        assert list(cache.iterdir()) == [newest]

    def test_library_mode_follows_the_umask(self, tmp_path):
        # as for any file cc creates: readable by all under umask 022, so a
        # shared checkout's cache serves every user
        old = os.umask(0o022)
        try:
            lib = sched._build(sched._SOURCE, tmp_path / "cache")
        finally:
            os.umask(old)
        assert lib.stat().st_mode & 0o777 == 0o755
        assert list(lib.parent.iterdir()) == [lib]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        # a CSV and its manifest are new files like any other: under umask
        # 022 readable by all, also where they replace an earlier output
        out = tmp_path / "run.csv"
        argv = ["simulate", "--C", "4", "--gamma", "0.5", "--paths", "2", "--slots", "300",
                "--out", str(out)]
        old = os.umask(umask)
        try:
            for _ in range(2):
                assert cli.main(argv) == 0
                written = [out, tmp_path / "run.csv.manifest.json"]
                assert [p.stat().st_mode & 0o777 for p in written] == [mode, mode]
                assert sorted(tmp_path.iterdir()) == sorted(written)
        finally:
            os.umask(old)

    def test_outputs_may_take_the_longest_name(self, tmp_path):
        # the manifest's name, the CSV's and ".manifest.json", at NAME_MAX:
        # the temporary files beside them take no longer names
        name = "r" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".csv.manifest.json")) + ".csv"
        out = tmp_path / name
        argv = ["simulate", "--C", "4", "--gamma", "0.5", "--paths", "2", "--slots", "300",
                "--out", str(out)]
        assert cli.main(argv) == 0
        assert sorted(tmp_path.iterdir()) == [out, tmp_path / f"{name}.manifest.json"]

    def test_unwritable_cache_builds_in_a_temporary_directory(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(sched, "_CACHE", blocker / "__pycache__")
        monkeypatch.setattr(sched, "_lib", None)
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        expire(self.arr, 1)
        assert list(scratch.iterdir()) == []  # removed once loaded

    def test_compile_error_names_the_compiler(self, tmp_path):
        broken = tmp_path / "_kernel.c"
        broken.write_text("int path_outages(void) { return }\n")
        with pytest.raises(RuntimeError, match="'cc' failed on _kernel.c"):
            sched._build(broken, tmp_path / "cache")
        assert list((tmp_path / "cache").iterdir()) == []

    def test_missing_compiler_is_a_runtime_failure(self, fresh_cache, monkeypatch, capsys):
        monkeypatch.setenv("PATH", str(fresh_cache.parent))  # no cc on it
        argv = ["simulate", "--C", "4", "--gamma", "0.5", "--paths", "2", "--slots", "300"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("failure: ") and "'cc' not found" in err
        assert list(fresh_cache.iterdir()) == []
