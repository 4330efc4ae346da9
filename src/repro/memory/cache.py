"""Cache models.

:class:`L1Cache` is a set-associative, per-SM cache.  PM lines carry real
word values (so an SM reads its own buffered persists, and cross-SM reads
of PM can be stale until an invalidation — exactly the behaviour scoped
persistency bugs rely on).  Volatile lines are tag-only: GPU L1s are
write-through for global data, so the shared visible image is always
functionally current for volatile reads.

Each L1 line carries the paper's extensions (Section 6): a PM bit and a
persist-buffer index.

:class:`TagCache` is a tag-only set-associative model used for the shared
L2 (timing and hit/miss statistics only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import L2_ASSOC
from repro.metrics.registry import MetricsRegistry


@dataclass(slots=True)
class CacheLine:
    """One L1 line with the paper's PM extensions.

    A ``slots`` dataclass: line fields are probed on every load, store
    and eviction, so dropping the per-instance ``__dict__`` measurably
    speeds up the simulator hot path.
    """

    tag: int = -1
    valid: bool = False
    dirty: bool = False
    is_pm: bool = False
    #: Index of the persist-buffer entry owning this line (or None).
    pb_index: Optional[int] = None
    #: Word values for PM lines (addr -> value); empty for volatile lines.
    words: Dict[int, int] = field(default_factory=dict)
    #: Subset of ``words`` written locally since the last flush — the set
    #: a write-back persists.  Flushing only locally written words keeps
    #: non-coherent L1s from clobbering other SMs' updates to the same
    #: line with a stale fetched snapshot.
    dirty_words: Dict[int, int] = field(default_factory=dict)
    last_use: float = 0.0

    def write_words(self, words: "Dict[int, int]") -> None:
        """Apply locally written words (store path)."""
        self.words.update(words)
        self.dirty_words.update(words)
        self.dirty = True

    def reset(self) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.is_pm = False
        self.pb_index = None
        self.words = {}
        self.dirty_words = {}


class L1Cache:
    """Per-SM set-associative L1 with PM-aware lines.

    Beside the set-associative ways sits a tag map (line address ->
    line) that turns every lookup into one dict probe.  LRU state stays
    on the lines, so victim choice is the way scan's.  A set's ways are
    allocated on its first fill, so building a cache costs nothing per
    set; a fresh set's first invalid way is way 0, as in a full scan.

    Invariant: ``_map[T] is line`` implies ``line.tag == T`` — ``fill``
    is the only place a tag changes, and it removes the victim's old
    mapping before recording the new one; single-line invalidations go
    through ``drop_line`` so the mapping dies with the tag.  Consumers
    still filter on ``line.valid``, so a line reset without going
    through the cache never answers a lookup.
    """

    def __init__(
        self,
        name: str,
        size: int,
        line_size: int,
        assoc: int,
        stats: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = size // (line_size * assoc)
        if self.num_sets < 1:
            raise ValueError(f"{name}: cache too small for its geometry")
        #: Set index -> ways, allocated on the set's first fill.
        self._sets: Dict[int, List[CacheLine]] = {}
        self._map: Dict[int, CacheLine] = {}
        #: Set-major way position (``index * assoc + way``) of each
        #: allocated line: sweeps that collect from the map sort by it
        #: to return lines in way-scan order.
        self._pos: Dict[int, int] = {}
        self.stats = stats if stats is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    # addressing helpers
    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_size) % self.num_sets

    # ------------------------------------------------------------------
    # lookup / fill
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, now: float = 0.0) -> Optional[CacheLine]:
        """Return the resident line for *line_addr*, updating LRU state."""
        line = self._map.get(line_addr)
        if line is not None and line.valid:
            line.last_use = now
            return line
        return None

    def victim_for(self, line_addr: int) -> CacheLine:
        """Choose the fill target for *line_addr*: an invalid way if one
        exists, else the LRU way.  The caller decides what to do with a
        dirty victim before overwriting it."""
        index = self._set_index(line_addr)
        ways = self._sets.get(index)
        if ways is None:
            self._sets[index] = ways = [CacheLine() for _ in range(self.assoc)]
            base = index * self.assoc
            for way, line in enumerate(ways):
                self._pos[id(line)] = base + way
            return ways[0]
        for line in ways:
            if not line.valid:
                return line
        return min(ways, key=lambda line: line.last_use)

    def fill(
        self,
        line: CacheLine,
        line_addr: int,
        is_pm: bool,
        words: Optional[Dict[int, int]] = None,
        now: float = 0.0,
    ) -> None:
        """Install *line_addr* into a (previously chosen) way.  The line
        takes ownership of *words* (the fetched line's data): the caller
        hands over a fresh dict and never touches it again."""
        tag_map = self._map
        old_tag = line.tag
        if old_tag != line_addr and tag_map.get(old_tag) is line:
            del tag_map[old_tag]
        line.tag = line_addr
        line.valid = True
        line.dirty = False
        line.is_pm = is_pm
        line.pb_index = None
        line.words = {} if words is None else words
        line.dirty_words = {}
        line.last_use = now
        tag_map[line_addr] = line

    # ------------------------------------------------------------------
    # invalidation (epoch barriers, device-scope acquires)
    # ------------------------------------------------------------------
    def drop_line(self, line: CacheLine) -> None:
        """Invalidate a single resident line (eviction write-back)."""
        # Prune before reset wipes the tag — otherwise a later fill of
        # this way under a new tag leaves the old mapping dangling.
        if self._map.get(line.tag) is line:
            del self._map[line.tag]
        line.reset()

    def holds_lines(self) -> bool:
        """False only when no line is resident: every sweep below would
        then find nothing to flush or drop."""
        return bool(self._map)

    def _resident(self) -> List[CacheLine]:
        return [line for line in self._map.values() if line.valid]

    def _drop(self, lines: List[CacheLine]) -> int:
        """Reset *lines* and prune their tags from the map."""
        for line in lines:
            line.reset()
        if lines:
            self._map = {t: l for t, l in self._map.items() if l.valid}
        return len(lines)

    def invalidate_clean_pm(self) -> int:
        """Drop clean PM lines (device-scope pAcq under SBRP).  Dirty PM
        lines hold this SM's own buffered persists and stay."""
        return self._drop(
            [line for line in self._resident() if line.is_pm and not line.dirty]
        )

    def invalidate_pm(self) -> int:
        """Drop all (now clean) PM lines — the epoch barrier's behaviour
        after it has flushed dirty persists."""
        return self._drop([line for line in self._resident() if line.is_pm])

    def invalidate_all(self) -> int:
        """Drop everything — GPM's system-scope fence hits volatile lines
        too, which is precisely its extra cost over the PM-only epoch."""
        return self._drop(self._resident())

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def dirty_pm_lines(self) -> List[CacheLine]:
        """Dirty PM lines in set-major way order (flush order decides
        event order, so it must not follow the map's fill order)."""
        lines = [
            line
            for line in self._map.values()
            if line.valid and line.dirty and line.is_pm
        ]
        if len(lines) > 1:
            pos = self._pos
            lines.sort(key=lambda line: pos[id(line)])
        return lines

    def occupancy(self) -> int:
        return len(self._resident())


class TagCache:
    """Tag-only set-associative cache (the shared L2 timing model)."""

    def __init__(
        self,
        name: str,
        size: int,
        line_size: int,
        assoc: int = L2_ASSOC,
        stats: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = size // (line_size * assoc)
        if self.num_sets < 1:
            raise ValueError(f"{name}: cache too small for its geometry")
        #: Set index -> {line address: last use}, created on the set's
        #: first allocating access.
        self._sets: Dict[int, Dict[int, float]] = {}
        self.stats = stats if stats is not None else MetricsRegistry()

    def access(self, line_addr: int, now: float, allocate: bool = True) -> bool:
        """Touch *line_addr*; return True on hit.  Misses allocate with
        LRU replacement when *allocate*."""
        index = (line_addr // self.line_size) % self.num_sets
        tags = self._sets.get(index)
        if tags is None:
            if allocate:
                self._sets[index] = {line_addr: now}
            return False
        if line_addr in tags:
            tags[line_addr] = now
            return True
        if allocate:
            if len(tags) >= self.assoc:
                evict = min(tags, key=tags.get)  # type: ignore[arg-type]
                del tags[evict]
            tags[line_addr] = now
        return False
