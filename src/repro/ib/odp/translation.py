"""The NIC's translation table, fronted by an MTT-style range cache.

Tracks, per (memory region, page), whether the RNIC holds a valid
virtual-to-physical mapping.  Pinned registrations populate their whole
range at registration time; ODP registrations start empty and fill in as
the driver resolves network page faults.  Kernel reclaim flushes entries
through :meth:`unmap_page`.

Every READ/WRITE the responder services asks "is this whole byte range
translatable?" — under flood that question is asked millions of times
for the same handful of ranges, so :meth:`range_mapped` memoises its
answer per ``(mr, addr, size)`` the way a NIC's MTT caches translation
ranges.  Cached answers are stamped with a **generation** that every
mapping change (fault resolution installing a page, invalidation or
deregistration removing one) bumps, so a stale entry can never be
served: resolved pages stop paying the per-page dictionary walk, and an
eviction instantly re-opens the walk.

A second counter, :attr:`NicTranslationTable.unmap_generation`, is
bumped by removals only (a real :meth:`unmap_page` flush, not a sticky
save, and :meth:`unmap_all`).  It suits caches that only ever hold
"every page mapped" verdicts, such as the storm coalescer's blind-round
memo: installing a translation cannot make a mapped range unmapped, so
only a removal can stale them.  Caches that hold "not mapped" verdicts
(the range cache here, the requester ready-cache) must keep the full
generation, because a map flips those.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.verbs.mr import MemoryRegion

PageKey = Tuple[int, int]  # (mr.handle, page index)
RangeKey = Tuple[int, int, int]  # (mr.handle, addr, size)

#: Stale range-cache entries tolerated before a bulk purge.
_RANGE_CACHE_LIMIT = 1 << 16


class NicTranslationTable:
    """Per-RNIC mapping state."""

    def __init__(self) -> None:
        self._mapped: Set[PageKey] = set()
        #: (mr, addr, size) -> (generation, verdict); entries from older
        #: generations are dead and lazily overwritten.
        self._range_cache: Dict[RangeKey, Tuple[int, bool]] = {}
        #: sticky entries (dynamic-pin mitigation): invalidation flows
        #: cannot flush them — only an explicit unpin or deregistration.
        self._sticky: Set[PageKey] = set()
        self._gen = 0
        self._unmap_gen = 0
        self.map_events = 0
        self.unmap_events = 0
        self.sticky_saves = 0
        self.range_cache_hits = 0
        self.range_cache_misses = 0

    @property
    def generation(self) -> int:
        """Mapping-change counter; any bump invalidates cached ranges."""
        return self._gen

    @property
    def unmap_generation(self) -> int:
        """Removal counter; a bump can only take translations away."""
        return self._unmap_gen

    def _bump(self) -> None:
        self._gen += 1
        if len(self._range_cache) > _RANGE_CACHE_LIMIT:
            self._range_cache.clear()

    def is_mapped(self, mr: "MemoryRegion", page: int) -> bool:
        """True when the NIC can translate ``page`` of ``mr``."""
        return (mr.handle, page) in self._mapped

    def range_mapped(self, mr: "MemoryRegion", addr: int, size: int) -> bool:
        """True when every page of ``[addr, addr+size)`` is mapped.

        Memoised per range; see the module docstring for the
        generation-based invalidation contract.
        """
        key = (mr.handle, addr, size)
        hit = self._range_cache.get(key)
        gen = self._gen
        if hit is not None and hit[0] == gen:
            self.range_cache_hits += 1
            return hit[1]
        self.range_cache_misses += 1
        mapped = self._mapped
        handle = mr.handle
        verdict = True
        for page in mr.pages_of_range(addr, size):
            if (handle, page) not in mapped:
                verdict = False
                break
        self._range_cache[key] = (gen, verdict)
        return verdict

    def missing_pages(self, mr: "MemoryRegion", addr: int, size: int) -> List[int]:
        """Pages of the range the NIC cannot translate."""
        return [page for page in mr.pages_of_range(addr, size)
                if not self.is_mapped(mr, page)]

    def map_page(self, mr: "MemoryRegion", page: int) -> None:
        """Install a translation (driver fault resolution)."""
        key = (mr.handle, page)
        if key not in self._mapped:
            self._mapped.add(key)
            self.map_events += 1
            self._bump()

    def map_range(self, mr: "MemoryRegion", addr: int, size: int) -> None:
        """Install translations for a whole range (pinned registration)."""
        for page in mr.pages_of_range(addr, size):
            self.map_page(mr, page)

    def pin_page(self, mr: "MemoryRegion", page: int) -> None:
        """Make the entry sticky: immune to invalidation flushes until
        :meth:`unpin_page` (dynamic-pin mitigation)."""
        self._sticky.add((mr.handle, page))

    def unpin_page(self, mr: "MemoryRegion", page: int) -> None:
        """Release a sticky entry back to normal invalidation rules."""
        self._sticky.discard((mr.handle, page))

    def unmap_page(self, mr: "MemoryRegion", page: int) -> None:
        """Flush a translation (invalidation)."""
        key = (mr.handle, page)
        if self._sticky and key in self._sticky:
            self.sticky_saves += 1
            return
        if key in self._mapped:
            self._mapped.remove(key)
            self.unmap_events += 1
            self._unmap_gen += 1
            self._bump()

    def unmap_all(self, mr: "MemoryRegion") -> int:
        """Flush every entry of ``mr`` (deregistration); returns count.

        Deregistration overrides stickiness: the pins die with the MR.
        """
        if self._sticky:
            self._sticky = {key for key in self._sticky
                            if key[0] != mr.handle}
        keys = [key for key in self._mapped if key[0] == mr.handle]
        for key in keys:
            self._mapped.remove(key)
        self.unmap_events += len(keys)
        if keys:
            self._unmap_gen += 1
            self._bump()
        return len(keys)

    def mapped_pages(self) -> int:
        """Total mapped entries (NIC-side spatial cost metric)."""
        return len(self._mapped)
