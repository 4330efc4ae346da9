"""L1 cache model: lookup, fill, LRU, PM invalidation flavours."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheLine, L1Cache, TagCache


def make_l1(size=1024, line=128, assoc=2) -> L1Cache:
    return L1Cache("l1", size, line, assoc)


class TestL1Basics:
    def test_miss_then_hit(self):
        l1 = make_l1()
        assert l1.lookup(0) is None
        victim = l1.victim_for(0)
        l1.fill(victim, 0, is_pm=False)
        assert l1.lookup(0) is victim

    def test_line_addr_alignment(self):
        l1 = make_l1()
        assert l1.line_addr(130) == 128
        assert l1.line_addr(128) == 128

    def test_lru_victim_selection(self):
        l1 = make_l1(size=256, line=128, assoc=2)  # one set, two ways
        a, b = 0, 128 * l1.num_sets  # same set
        l1.fill(l1.victim_for(a), a, False, now=1)
        l1.fill(l1.victim_for(b), b, False, now=2)
        l1.lookup(a, now=3)  # a most recently used
        victim = l1.victim_for(256 * l1.num_sets)
        assert victim.tag == b  # b is LRU

    def test_dirty_words_track_local_writes(self):
        line = CacheLine()
        l1 = make_l1()
        l1.fill(line, 0, is_pm=True, words={0: 7, 4: 8})
        line.write_words({4: 99})
        assert line.words == {0: 7, 4: 99}
        assert line.dirty_words == {4: 99}
        assert line.dirty


class TestInvalidation:
    def fill_mixed(self, l1):
        pm_line = l1.victim_for(0)
        l1.fill(pm_line, 0, is_pm=True)
        pm_line.write_words({0: 1})
        clean_pm = l1.victim_for(128)
        l1.fill(clean_pm, 128, is_pm=True)
        vol = l1.victim_for(256)
        l1.fill(vol, 256, is_pm=False)
        return pm_line, clean_pm, vol

    def test_invalidate_clean_pm_keeps_dirty(self):
        l1 = make_l1()
        dirty, clean, vol = self.fill_mixed(l1)
        dropped = l1.invalidate_clean_pm()
        assert dropped == 1
        assert l1.lookup(0) is not None  # dirty PM survives
        assert l1.lookup(128) is None
        assert l1.lookup(256) is not None  # volatile untouched

    def test_invalidate_pm_drops_all_pm(self):
        l1 = make_l1()
        self.fill_mixed(l1)
        assert l1.invalidate_pm() == 2
        assert l1.lookup(256) is not None

    def test_invalidate_all_is_gpm_behaviour(self):
        l1 = make_l1()
        self.fill_mixed(l1)
        assert l1.invalidate_all() == 3
        assert l1.occupancy() == 0

    def test_dirty_pm_lines_enumeration(self):
        l1 = make_l1()
        dirty, _, _ = self.fill_mixed(l1)
        assert l1.dirty_pm_lines() == [dirty]


class TestTagMap:
    """The L1's tag map must never answer for a tag its line lost."""

    def test_refill_after_drop_line_forgets_the_old_tag(self):
        l1 = make_l1()
        line = l1.victim_for(0)
        l1.fill(line, 0, is_pm=True)
        l1.drop_line(line)
        assert l1.lookup(0) is None
        step = 128 * l1.num_sets  # same set as line 0
        assert l1.victim_for(step) is line  # the freed way is reused
        l1.fill(line, step, is_pm=True)
        assert l1.lookup(0) is None
        assert l1.lookup(step) is line

    def test_victim_refill_prunes_the_old_tag(self):
        l1 = make_l1(size=256, line=128, assoc=2)  # one set, two ways
        step = 128 * l1.num_sets
        first = l1.victim_for(0)
        l1.fill(first, 0, is_pm=False, now=1)
        l1.fill(l1.victim_for(step), step, is_pm=False, now=2)
        victim = l1.victim_for(2 * step)
        assert victim is first  # LRU
        l1.fill(victim, 2 * step, is_pm=False, now=3)
        assert l1.lookup(0) is None
        assert l1.lookup(2 * step) is victim
        assert l1.lookup(step) is not None
        assert l1.occupancy() == 2

    def test_dirty_pm_lines_come_back_in_set_major_way_order(self):
        l1 = make_l1()  # 4 sets x 2 ways
        step = 128 * l1.num_sets
        # Fill set 1 before set 0, so fill order is not way order, then
        # dirty the lines in a third order.
        addrs = [128, 128 + step, 0, step]
        lines = {}
        for addr in addrs:
            lines[addr] = l1.victim_for(addr)
            l1.fill(lines[addr], addr, is_pm=True)
        for addr in (step, 128 + step, 0, 128):
            lines[addr].write_words({addr: 1})
        assert l1.dirty_pm_lines() == [
            lines[0], lines[step], lines[128], lines[128 + step]
        ]

    @pytest.mark.parametrize(
        "sweep, dropped",
        [
            ("invalidate_clean_pm", {"clean_pm"}),
            ("invalidate_pm", {"clean_pm", "dirty_pm"}),
            ("invalidate_all", {"clean_pm", "dirty_pm", "vol"}),
        ],
    )
    def test_sweeps_drop_their_tags_and_keep_the_rest(self, sweep, dropped):
        l1 = make_l1()
        addrs = {"dirty_pm": 0, "clean_pm": 128, "vol": 256}
        for kind, addr in addrs.items():
            line = l1.victim_for(addr)
            l1.fill(line, addr, is_pm=kind != "vol")
            if kind == "dirty_pm":
                line.write_words({addr: 1})
        assert getattr(l1, sweep)() == len(dropped)
        for kind, addr in addrs.items():
            if kind in dropped:
                assert l1.lookup(addr) is None, kind
            else:
                assert l1.lookup(addr).tag == addr, kind
        # A dropped tag stays gone after its way is refilled.
        for kind in dropped:
            addr = addrs[kind] + 128 * l1.num_sets
            l1.fill(l1.victim_for(addr), addr, is_pm=False)
            assert l1.lookup(addrs[kind]) is None, kind


class TestTagCache:
    def test_hit_after_allocate(self):
        l2 = TagCache("l2", 1024, 128, assoc=2)
        assert not l2.access(0, now=0)
        assert l2.access(0, now=1)

    def test_lru_eviction(self):
        l2 = TagCache("l2", 256, 128, assoc=2)  # 1 set
        step = 128 * l2.num_sets
        l2.access(0, now=0)
        l2.access(step, now=1)
        l2.access(0, now=2)
        l2.access(2 * step, now=3)  # evicts `step`
        assert l2.access(0, now=4)
        assert not l2.access(step, now=5)

    def test_no_allocate_mode(self):
        l2 = TagCache("l2", 1024, 128)
        l2.access(0, now=0, allocate=False)
        assert not l2.access(0, now=1)


class TestLazySets:
    """Sets are allocated on first fill; nothing else may change."""

    def test_fresh_caches_allocate_no_sets(self):
        assert make_l1()._sets == {}
        assert TagCache("l2", 4096, 128)._sets == {}

    def test_out_of_order_sets_still_flush_set_major(self):
        l1 = make_l1(size=2048, line=128, assoc=2)  # 8 sets
        lines = {}
        for index in (6, 1, 4, 0):
            lines[index] = l1.victim_for(128 * index)
            l1.fill(lines[index], 128 * index, is_pm=True)
            lines[index].write_words({128 * index: 1})
        assert sorted(l1._sets) == [0, 1, 4, 6]
        assert l1.dirty_pm_lines() == [lines[i] for i in (0, 1, 4, 6)]

    def test_non_allocating_l2_access_allocates_nothing(self):
        l2 = TagCache("l2", 4096, 128, assoc=2)
        assert not l2.access(0, now=0, allocate=False)
        assert l2._sets == {}
        assert not l2.access(0, now=1)
        assert list(l2._sets) == [0]


class EagerL1:
    """The pre-lazy L1: every set's ways built up front, every probe a
    way scan, flush order a set-major walk of all ways."""

    def __init__(self, num_sets: int, assoc: int, line_size: int) -> None:
        self.line_size = line_size
        self.sets = [[CacheLine() for _ in range(assoc)] for _ in range(num_sets)]

    def ways(self, line_addr: int):
        return self.sets[(line_addr // self.line_size) % len(self.sets)]

    def lookup(self, line_addr: int, now: float):
        for line in self.ways(line_addr):
            if line.valid and line.tag == line_addr:
                line.last_use = now
                return line
        return None

    def victim_for(self, line_addr: int) -> CacheLine:
        ways = self.ways(line_addr)
        for line in ways:
            if not line.valid:
                return line
        return min(ways, key=lambda line: line.last_use)

    def fill(self, line: CacheLine, line_addr: int, is_pm: bool, now: float):
        line.reset()
        line.tag, line.valid, line.is_pm, line.last_use = line_addr, True, is_pm, now

    def invalidate(self, keep) -> int:
        dropped = 0
        for line in self.all_lines():
            if line.valid and not keep(line):
                line.reset()
                dropped += 1
        return dropped

    def all_lines(self):
        return [line for ways in self.sets for line in ways]

    def dirty_pm_lines(self):
        return [l for l in self.all_lines() if l.valid and l.dirty and l.is_pm]


_SWEEPS = {
    "invalidate_clean_pm": lambda line: not line.is_pm or line.dirty,
    "invalidate_pm": lambda line: not line.is_pm,
    "invalidate_all": lambda line: False,
}

_line_addrs = st.integers(0, 7).map(lambda i: 128 * i)  # 4 per set
_times = st.integers(0, 1)  # two distinct times: LRU ties are common
_fills = st.tuples(st.just("fill"), _line_addrs, st.booleans(), _times)
_cache_ops = st.lists(
    st.one_of(
        _fills,
        _fills,
        st.tuples(st.just("lookup"), _line_addrs, _times),
        st.tuples(st.just("write"), _line_addrs),
        st.tuples(st.just("drop"), _line_addrs),
        st.tuples(st.just("sweep"), st.sampled_from(sorted(_SWEEPS))),
    ),
    min_size=20,  # long enough to fill, age and tie whole sets
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_cache_ops)
def test_lazy_sets_match_the_eager_way_scan(ops):
    """Victims, hits, sweep counts and ``dirty_pm_lines()`` order of
    the lazy L1 equal the eager model's, way for way."""
    l1 = make_l1(size=512, line=128, assoc=2)  # 2 sets x 2 ways
    eager = EagerL1(l1.num_sets, l1.assoc, l1.line_size)

    def way_of(line):  # (set index, way) of a lazy-L1 line
        return next(
            (index, way)
            for index, ways in l1._sets.items()
            for way, candidate in enumerate(ways)
            if candidate is line
        )

    def eager_way_of(line):
        pos = next(i for i, way in enumerate(eager.all_lines()) if way is line)
        return divmod(pos, l1.assoc)

    for op in ops:
        kind, args = op[0], op[1:]
        if kind == "fill":
            addr, is_pm, now = args
            if l1.lookup(addr, now) is not None:
                assert eager.lookup(addr, now) is not None
                continue
            victim, eager_victim = l1.victim_for(addr), eager.victim_for(addr)
            assert way_of(victim) == eager_way_of(eager_victim)
            l1.fill(victim, addr, is_pm, now=now)
            eager.fill(eager_victim, addr, is_pm, now)
        elif kind == "lookup":
            addr, now = args
            hit, eager_hit = l1.lookup(addr, now), eager.lookup(addr, now)
            assert (hit is None) == (eager_hit is None)
            if hit is not None:
                assert way_of(hit) == eager_way_of(eager_hit)
        elif kind == "write":
            (addr,) = args
            hit, eager_hit = l1.lookup(addr), eager.lookup(addr, 0)
            assert (hit is None) == (eager_hit is None)
            if hit is not None:
                hit.write_words({addr: 1})
                eager_hit.write_words({addr: 1})
        elif kind == "drop":
            (addr,) = args
            hit, eager_hit = l1.lookup(addr), eager.lookup(addr, 0)
            assert (hit is None) == (eager_hit is None)
            if hit is not None:
                l1.drop_line(hit)
                eager_hit.reset()
        else:
            (sweep,) = args
            assert getattr(l1, sweep)() == eager.invalidate(_SWEEPS[sweep])
        assert [way_of(l) for l in l1.dirty_pm_lines()] == [
            eager_way_of(l) for l in eager.dirty_pm_lines()
        ]
