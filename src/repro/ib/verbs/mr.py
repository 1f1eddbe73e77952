"""Memory regions.

Three flavours (Section III of the paper):

* ``PINNED`` — classic registration: host pages are pinned and every NIC
  translation installed up front; costs registration time proportional
  to the page count (Section VIII-A's runtime overhead).
* ``ODP_EXPLICIT`` — the region is ODP-backed: no pinning, the NIC
  translation table starts empty and fills by network page faults.
* ``ODP_IMPLICIT`` — the whole address space is ODP-backed.

Kernel reclaim of an ODP page triggers the driver invalidation flow via
a VM invalidation hook.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional

from repro.host.memory import Region, VirtualMemory
from repro.ib.verbs.enums import Access, OdpMode
from repro.sim.future import Future

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.rnic import Rnic

_mr_handles = itertools.count(1)
_keys = itertools.count(0x1000)


def reset_mr_numbering() -> None:
    """Restart MR handle/key allocation (fresh-cluster determinism).

    Handles and keys are process-global allocation counters, so traces
    from back-to-back runs in one process drift unless each run starts
    from the same numbering — same contract as
    :func:`repro.ib.packets.reset_packet_serials`.
    """
    global _mr_handles, _keys
    _mr_handles = itertools.count(1)
    _keys = itertools.count(0x1000)


class MemoryRegion:
    """A registered memory region (created via ``ProtectionDomain.reg_mr``)."""

    def __init__(self, rnic: "Rnic", region: Region, access: Access,
                 mode: OdpMode):
        self.rnic = rnic
        self.vm: VirtualMemory = region.vm
        self.region = region
        self.access = access
        self.mode = mode
        #: Fixed at registration, so resolved once to plain values for
        #: the responder's per-request check: ``access`` as an int mask,
        #: ``[addr, addr + length)`` (None for an implicit region, which
        #: spans whatever the address space maps).
        self.access_bits = access.value
        self.span = (None if mode is OdpMode.IMPLICIT
                     else (region.base, region.base + region.size))
        self.handle = next(_mr_handles)
        self.lkey = next(_keys)
        self.rkey = next(_keys)
        self.deregistered = False
        #: resolves when the registration is usable (pinning costs time)
        self.ready = Future(label=f"mr{self.handle}.ready")
        self._install()

    # ------------------------------------------------------------------

    @property
    def addr(self) -> int:
        """Base virtual address."""
        return self.region.base

    @property
    def length(self) -> int:
        """Registered length in bytes."""
        return self.region.size

    def contains(self, addr: int, size: int) -> bool:
        """True when ``[addr, addr+size)`` falls inside the region."""
        span = self.span
        if span is None:
            return self.vm.is_mapped(addr, size)
        return span[0] <= addr and addr + size <= span[1]

    def pages_of_range(self, addr: int, size: int) -> List[int]:
        """Page indices of an absolute address range."""
        return VirtualMemory.pages_of_range(addr, size)

    # ------------------------------------------------------------------

    def _install(self) -> None:
        sim = self.rnic.sim
        if self.mode is OdpMode.PINNED:
            num_pages = len(self.region.pages())
            cost = self.rnic.profile.registration_cost_ns(num_pages)

            def finish() -> None:
                self.vm.pin_range(self.addr, self.length)
                self.rnic.translation.map_range(self, self.addr, self.length)
                self.ready.resolve(self)

            sim.schedule(cost, finish)
        else:
            # ODP: instant registration (that is the productivity win);
            # hook invalidations so reclaim flushes NIC entries.
            self.vm.add_invalidation_hook(self._on_evict)
            sim.call_soon(self.ready.resolve, self)
        self.rnic.register_mr(self)

    def _on_evict(self, page: int) -> None:
        if self.deregistered:
            return
        if self.rnic.translation.is_mapped(self, page):
            self.rnic.driver.invalidate(self.rnic, self, page)

    def advise(self, addr: Optional[int] = None,
               size: Optional[int] = None) -> None:
        """``ibv_advise_mr``-style prefetch of (part of) an ODP region:
        translations are resolved ahead of traffic, so the common-case
        network page fault never happens (the receiver-side prefetch of
        Li et al. [20])."""
        if self.mode is OdpMode.PINNED:
            return  # pinned regions are always mapped
        self.rnic.odp.advise_range(self,
                                   addr if addr is not None else self.addr,
                                   size if size is not None else self.length)

    def dereg(self) -> None:
        """Deregister: unpin (if pinned) and flush NIC translations."""
        if self.deregistered:
            return
        self.deregistered = True
        if self.mode is OdpMode.PINNED and self.ready.done:
            self.vm.unpin_range(self.addr, self.length)
        self.rnic.translation.unmap_all(self)
        self.rnic.unregister_mr(self)

    def release(self) -> None:
        """Drop the RNIC, the PD and the ready future (end of run): the
        future resolved with this MR, so each of them leads back here."""
        self.rnic = None
        self.pd = None
        self.ready = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MR#{self.handle} {self.mode.value} "
                f"{self.addr:#x}+{self.length}>")
