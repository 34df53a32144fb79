import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proactivenet.sched import serve_path

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


def one_slot(b, C, f=1.0, q=None, refill=False):
    """Expired counts of a one-slot path whose arrivals are the backlog b."""
    sec = None if q is None else [q]
    return serve_path([b], C, f=f, secondary=sec, refill=refill)[0].tolist()


def served(b, C, f=1.0):
    """Primary requests served in one slot of backlog b.

    A probe secondary of C + 1 urgent requests takes whatever capacity the
    primary leaves and always loses served + 1 of them.
    """
    return one_slot(b, C, f, q=C + 1)[1] - 1


def multicast(presence, C, T, **kw):
    return serve_path(np.asarray(presence, dtype=bool), C, multicast_T=T, **kw)


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
        small = serve_path(arr, C)[:, 0]
        large = serve_path(arr, C + 1)[:, 0]
        assert small.sum() >= large.sum()


@given(st.lists(st.integers(0, 12), min_size=1, max_size=12), st.integers(0, 8),
       st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.data())
def test_window_zero_matches_the_slot_loop(a, C, f, refill, data):
    # a window of length 0 is served in one vectorized step; the same
    # arrivals, all urgent, in a window of length 1 run through the loop
    q = data.draw(st.lists(st.integers(0, 6), min_size=len(a), max_size=len(a)))
    flat = serve_path([[x] for x in a], C, f=f, secondary=q, refill=refill)
    loop = serve_path([[x, 0] for x in a], C, f=f, secondary=q, refill=refill)
    assert np.array_equal(flat, loop)


class TestAdvanceSlot:
    # with C = 0 nothing is served, so each request expires exactly when its
    # residual deadline reaches 0
    def test_shift_and_insert(self):
        arr = [[0, 2], [0, 3], [0, 0]]
        assert serve_path(arr, 0)[:, 0].tolist() == [0, 2, 3]

    def test_urgent_insertion(self):
        assert serve_path([[4, 0, 0]], 0)[:, 0].tolist() == [4]

    def test_zero_shift(self):
        assert serve_path(np.zeros((5, 4), dtype=int), 0)[:, 0].tolist() == [0] * 5

    def test_out_of_range_lookahead(self):
        with pytest.raises(ValueError):
            multicast([[True]], 1, -1)
        with pytest.raises(ValueError):
            serve_path([[1, 0]], -1)


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
        dyn = serve_path(arr, C, f=f, secondary=q)
        selfish = serve_path(arr, C, secondary=q)
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
        out = serve_path(arr, C, f=0.0, secondary=[q, C + 1], refill=True).tolist()
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
    edf_expired = serve_path(arr, C)[:, 0].tolist()

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
