"""Per-process virtual memory with real backing bytes.

Pages are materialised lazily: an address range returned by
:meth:`VirtualMemory.mmap` has no resident pages until first touch,
mirroring anonymous ``mmap`` semantics.  RDMA payloads in this simulator
carry actual bytes end to end, so tests can assert data integrity across
retransmissions, faults and invalidations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Page size used throughout the model (the paper aligns buffers to 4096).
PAGE_SIZE = 4096


class MemoryError_(RuntimeError):
    """Raised on out-of-range or unmapped access."""


@dataclass
class PageInfo:
    """Kernel bookkeeping for one resident page."""

    data: bytearray
    resident_since: int
    pinned: int = 0  # pin count (pinned registrations)


class VirtualMemory:
    """One process' address space.

    Addresses start at ``BASE`` and grow upward via a bump allocator;
    deallocation is not modelled (the workloads never need it).  CPU-side
    reads/writes make pages resident immediately (minor-fault cost is
    negligible at the time scales studied); *eviction* removes residency
    and fires invalidation callbacks, which the RNIC driver uses to flush
    NIC translations.
    """

    BASE = 0x10_0000_0000

    def __init__(self, now_fn: Callable[[], int], name: str = "vm"):
        self._now = now_fn
        self.name = name
        self._next_addr = self.BASE
        #: (base, size) in rising ``base`` order — ``mmap`` only
        #: appends above the bump pointer — with the bases mirrored in
        #: ``_bases`` for :meth:`is_mapped`'s bisection.
        self._mappings: List[Tuple[int, int]] = []
        self._bases: List[int] = []
        self._pages: Dict[int, PageInfo] = {}
        self._swap: Dict[int, bytes] = {}
        self._invalidation_hooks: List[Callable[[int], None]] = []
        self.faults_first_touch = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Mapping management
    # ------------------------------------------------------------------

    def mmap(self, size: int, populate: bool = False,
             align: int = PAGE_SIZE) -> "Region":
        """Reserve ``size`` bytes; optionally pre-touch every page."""
        if size <= 0:
            raise MemoryError_(f"mmap size must be positive, got {size}")
        base = -(-self._next_addr // align) * align
        self._next_addr = base + size
        self._mappings.append((base, size))
        self._bases.append(base)
        region = Region(self, base, size)
        if populate:
            self.touch_range(base, size)
        return region

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        """True when ``[addr, addr+size)`` lies inside some mapping.

        Mappings never overlap and rise with their bases, so the only
        candidate is the last one based at or below ``addr``.
        """
        index = bisect_right(self._bases, addr) - 1
        if index < 0:
            return False
        base, msize = self._mappings[index]
        return addr + size <= base + msize

    # ------------------------------------------------------------------
    # Page state
    # ------------------------------------------------------------------

    @staticmethod
    def page_of(addr: int) -> int:
        """Page index containing ``addr``."""
        return addr // PAGE_SIZE

    @staticmethod
    def pages_of_range(addr: int, size: int) -> List[int]:
        """All page indices overlapping ``[addr, addr+size)``."""
        if size <= 0:
            return []
        first = addr // PAGE_SIZE
        last = (addr + size - 1) // PAGE_SIZE
        return list(range(first, last + 1))

    def is_resident(self, page: int) -> bool:
        """True when the page has physical backing."""
        return page in self._pages

    def resident_pages(self) -> int:
        """Number of resident pages (spatial-cost metric)."""
        return len(self._pages)

    def _materialise(self, page: int) -> PageInfo:
        info = self._pages.get(page)
        if info is None:
            if not self.is_mapped(page * PAGE_SIZE):
                raise MemoryError_(
                    f"{self.name}: access to unmapped page {page:#x}")
            info = PageInfo(bytearray(PAGE_SIZE), self._now())
            self._pages[page] = info
            self.faults_first_touch += 1
        return info

    def touch_range(self, addr: int, size: int) -> None:
        """Make every page of the range resident (CPU first touch)."""
        for page in self.pages_of_range(addr, size):
            self._materialise(page)

    def pin_range(self, addr: int, size: int) -> None:
        """Pin pages (resident + immune to eviction), as ``mlock`` would."""
        for page in self.pages_of_range(addr, size):
            self._materialise(page).pinned += 1

    def unpin_range(self, addr: int, size: int) -> None:
        """Release a previous :meth:`pin_range`."""
        for page in self.pages_of_range(addr, size):
            info = self._pages.get(page)
            if info is None or info.pinned <= 0:
                raise MemoryError_(f"{self.name}: unpin of unpinned page {page:#x}")
            info.pinned -= 1

    def evict(self, page: int) -> bool:
        """Reclaim a page (kernel swapping it out).

        Pinned pages cannot be evicted.  Returns True when evicted;
        registered invalidation hooks fire so the driver can flush NIC
        translations — the reverse flow of Section III-A.

        The page's bytes are preserved in a swap store so a later touch
        restores them (data must survive eviction).
        """
        info = self._pages.get(page)
        if info is None:
            return False
        if info.pinned > 0:
            return False
        self._swap.setdefault(page, bytes(info.data))
        del self._pages[page]
        self.evictions += 1
        for hook in self._invalidation_hooks:
            hook(page)
        return True

    def release(self) -> None:
        """Drop the invalidation hooks (end of run): they are bound
        methods of the MRs registered over this address space."""
        self._invalidation_hooks.clear()

    def add_invalidation_hook(self, hook: Callable[[int], None]) -> None:
        """Register an MMU-notifier-like callback fired on eviction."""
        self._invalidation_hooks.append(hook)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        """CPU store: touches pages and copies ``data`` in."""
        offset = 0
        remaining = len(data)
        while remaining > 0:
            page = (addr + offset) // PAGE_SIZE
            info = self._restore_or_materialise(page)
            page_off = (addr + offset) % PAGE_SIZE
            chunk = min(remaining, PAGE_SIZE - page_off)
            info.data[page_off:page_off + chunk] = data[offset:offset + chunk]
            offset += chunk
            remaining -= chunk

    def read(self, addr: int, size: int) -> bytes:
        """CPU load: touches pages and returns ``size`` bytes."""
        out = bytearray()
        offset = 0
        while offset < size:
            page = (addr + offset) // PAGE_SIZE
            info = self._restore_or_materialise(page)
            page_off = (addr + offset) % PAGE_SIZE
            chunk = min(size - offset, PAGE_SIZE - page_off)
            out += info.data[page_off:page_off + chunk]
            offset += chunk
        return bytes(out)

    def _restore_or_materialise(self, page: int) -> PageInfo:
        info = self._pages.get(page)
        if info is not None:
            return info
        info = self._materialise(page)
        swapped = self._swap.pop(page, None)
        if swapped is not None:
            info.data[:] = swapped
        return info


class Region:
    """A convenience view over ``[base, base+size)`` of one address space."""

    __slots__ = ("vm", "base", "size")

    def __init__(self, vm: VirtualMemory, base: int, size: int):
        self.vm = vm
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.base + self.size

    def addr(self, offset: int) -> int:
        """Absolute address of ``offset`` within the region."""
        if not 0 <= offset <= self.size:
            raise MemoryError_(f"offset {offset} outside region of {self.size}")
        return self.base + offset

    def sub(self, offset: int, size: int) -> "Region":
        """A sub-region view."""
        if offset + size > self.size:
            raise MemoryError_("sub-region exceeds parent")
        return Region(self.vm, self.base + offset, size)

    def write(self, offset: int, data: bytes) -> None:
        """CPU store at ``offset``."""
        if offset + len(data) > self.size:
            raise MemoryError_("write exceeds region")
        self.vm.write(self.base + offset, data)

    def read(self, offset: int, size: int) -> bytes:
        """CPU load at ``offset``."""
        if offset + size > self.size:
            raise MemoryError_("read exceeds region")
        return self.vm.read(self.base + offset, size)

    def fill(self, byte: int) -> None:
        """Fill the whole region with one byte value (touches all pages)."""
        self.vm.write(self.base, bytes([byte]) * self.size)

    def pages(self) -> List[int]:
        """Page indices spanned by the region."""
        return VirtualMemory.pages_of_range(self.base, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Region {self.base:#x}+{self.size} of {self.vm.name}>"
