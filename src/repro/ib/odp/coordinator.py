"""Glue between transport state machines, driver faults, and page status.

Server side (responder) is *stateless*, exactly as the paper deduces in
Section VI-C: every arriving request simply consults the translation
table; a miss raises a fault (coalesced by the driver) and the responder
answers RNR NAK.  Once the driver installs the translation, the next
retransmission succeeds — no per-QP state involved.

Client side (requester) is *stateful*: each QP holds its own cached view
of page statuses.  Inbound READ data is only accepted when the global
translation exists *and* the per-QP view has the page; populating a QP's
view is serial work for the device's
:class:`~repro.ib.odp.status_engine.PageStatusEngine`, whose congestion
under many simultaneous faults is the packet-flood window: the
translation table can be long since updated while a QP's view is still
cold, and the QP keeps blindly retransmitting and discarding responses
("update failure of page statuses", Section VI-B).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.host.memory import PAGE_SIZE
from repro.sim.engine import Simulator
from repro.sim.future import Future, all_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.rnic import Rnic
    from repro.ib.verbs.mr import MemoryRegion

QpPageKey = Tuple[int, int, int]  # (qpn, mr.handle, page)
PageKey = Tuple[int, int]         # (mr.handle, page)
ReadyKey = Tuple[int, int, int, int]  # (qpn, mr.handle, addr, size)

#: Stale ready-cache entries tolerated before a bulk purge.
_READY_CACHE_LIMIT = 1 << 16

#: The view of a page no QP holds.
_NO_QPS: frozenset = frozenset()


class OdpCoordinator:
    """Per-RNIC ODP bookkeeping."""

    def __init__(self, sim: Simulator, rnic: "Rnic"):
        self.sim = sim
        self.rnic = rnic
        #: per-QP page-status views, indexed by page: the QPs whose
        #: view holds it (page usable by those QPs)
        self._view_by_page: Dict[PageKey, Set[int]] = {}
        #: (QP, page) updates requested but not yet processed
        self._stale: Set[QpPageKey] = set()
        self._stale_by_qpn: Dict[int, int] = {}
        self._fresh_futures: Dict[QpPageKey, Future] = {}
        #: memoised requester_range_ready verdicts, stamped with the
        #: (view generation, translation generation) pair that produced
        #: them.  The status engine's resolve transitions and the
        #: invalidation flow bump the view generation, so the flood's
        #: millions of identical "is my local range fresh yet?" checks
        #: between two engine transitions cost one dict hit each.
        self._ready_cache: Dict[ReadyKey, Tuple[int, int, bool]] = {}
        self._view_gen = 0
        self.ready_cache_hits = 0
        self.ready_cache_misses = 0
        self.client_faults = 0
        self.server_faults = 0
        #: dynamic-pin (NP-RDMA) state: pages speculated hot and pinned
        #: (resident + reclaim-immune + exempt from per-QP status
        #: updates), their fault-feedback tallies, and the LRU order the
        #: pin budget releases them in.  All empty unless an installed
        #: mitigation strategy has ``pin_pages``.
        self._pinned: Set[PageKey] = set()
        self._pin_feedback: Dict[PageKey, int] = {}
        self._pin_lru: "OrderedDict[PageKey, MemoryRegion]" = OrderedDict()
        self.pins_installed = 0
        self.pins_released = 0
        self.pin_bypasses = 0
        rnic.status_engine.load_fn = self.retransmit_load
        # Fault transitions (resume enqueues) also invalidate: a range
        # answered "ready" can never be made unready by a fault alone,
        # but the conservative bump keeps the cache contract trivially
        # audit-able against the engine's transition log.
        rnic.status_engine.transition_hook = self._bump_view_gen

    def release(self) -> None:
        """Drop the RNIC back-reference (end of run); the fault tallies
        and the stale-view set stay readable."""
        self.rnic = None

    def _bump_view_gen(self) -> None:
        self._view_gen += 1
        if len(self._ready_cache) > _READY_CACHE_LIMIT:
            self._ready_cache.clear()

    # ------------------------------------------------------------------
    # Responder (server-side ODP): stateless translation checks
    # ------------------------------------------------------------------

    def responder_range_ready(self, mr: "MemoryRegion", addr: int, size: int) -> bool:
        """Can the responder DMA this range right now?"""
        return self.rnic.translation.range_mapped(mr, addr, size)

    def responder_raise_faults(self, mr: "MemoryRegion", addr: int, size: int) -> None:
        """Raise (coalesced) faults for the unmapped pages of the range.

        The pin-feedback strategy resolves per MR when the service tier
        labelled one (multi-tenant cells mix strategies on one RNIC);
        unlabelled MRs keep the device-wide strategy.
        """
        m = getattr(mr, "mitigation", None) or self.rnic.mitigation
        for page in self.rnic.translation.missing_pages(mr, addr, size):
            self.server_faults += 1
            self.rnic.driver.request_fault(self.rnic, mr, page)
            if m is not None and m.pin_pages:
                self._note_pin_feedback(mr, page, m)

    # ------------------------------------------------------------------
    # Requester (client-side ODP): stateful per-QP views
    # ------------------------------------------------------------------

    def requester_range_ready(self, qpn: int, mr: "MemoryRegion",
                              addr: int, size: int) -> bool:
        """Can QP ``qpn`` use this local range right now?

        Requires both a valid translation *and* the page in the QP's own
        status view — or the page device-pinned by the dynamic-pin
        mitigation, which models presence for every QP at once.
        Memoised per (QP, MR, range); see ``_ready_cache``.
        """
        translation = self.rnic.translation
        handle = mr.handle
        key = (qpn, handle, addr, size)
        vgen = self._view_gen
        tgen = translation.generation
        hit = self._ready_cache.get(key)
        if hit is not None and hit[0] == vgen and hit[1] == tgen:
            self.ready_cache_hits += 1
            return hit[2]
        self.ready_cache_misses += 1
        views = self._view_by_page
        mapped = translation._mapped  # noqa: SLF001 - same-device fast path
        # ``mr.pages_of_range`` inlined (it is a static page-index
        # computation): the client-side flood re-checks the same cold
        # single-page range once per discarded response, and the view
        # generation bumps on every status-engine transition, so this
        # miss loop — not the cache hit — is the hot path.
        pinned = self._pinned
        verdict = True
        if size > 0:
            first = addr // PAGE_SIZE
            last = (addr + size - 1) // PAGE_SIZE
            if first == last:
                page_key = (handle, first)
                if (page_key not in mapped
                        or qpn not in views.get(page_key, _NO_QPS)) \
                        and page_key not in pinned:
                    verdict = False
            else:
                for page in range(first, last + 1):
                    page_key = (handle, page)
                    if (page_key not in mapped
                            or qpn not in views.get(page_key, _NO_QPS)) \
                            and page_key not in pinned:
                        verdict = False
                        break
        self._ready_cache[key] = (vgen, tgen, verdict)
        return verdict

    def requester_wait_fresh(self, qpn: int, mr: "MemoryRegion",
                             addr: int, size: int) -> Future:
        """Raise faults for the range on behalf of ``qpn`` and return a
        future resolving when every page is mapped *and* in its view."""
        futures: List[Future] = []
        for page in mr.pages_of_range(addr, size):
            futures.append(self._page_fresh(qpn, mr, page))
        return all_of(futures, label=f"fresh:qp{qpn}")

    def _page_fresh(self, qpn: int, mr: "MemoryRegion", page: int) -> Future:
        key = (qpn, mr.handle, page)
        existing = self._fresh_futures.get(key)
        if existing is not None and not existing.done:
            return existing
        if self._pinned and (mr.handle, page) in self._pinned:
            # Dynamic-pin fast path: a device-pinned page needs no
            # per-QP status update, so the status engine — the flood's
            # congestion point — is bypassed entirely.
            self.pin_bypasses += 1
            self.rnic.status_engine.note_bypass()
            self._pin_lru.move_to_end((mr.handle, page))
            ready = Future(label=f"fresh:{key}")
            ready.resolve(page)
            return ready
        if self.rnic.translation.is_mapped(mr, page) \
                and qpn in self._view_by_page.get((mr.handle, page), _NO_QPS):
            ready = Future(label=f"fresh:{key}")
            ready.resolve(page)
            return ready
        # The QP's view is cold (or invalidated): an engine update is
        # needed, preceded by a driver fault when the translation itself
        # is missing.
        self._stale.add(key)
        self._stale_by_qpn[qpn] = self._stale_by_qpn.get(qpn, 0) + 1
        self.client_faults += 1
        # Per-QP resolution: multi-tenant cells install strategies on a
        # tenant's QPs, not the device, so the fault-feedback signal
        # must come from the faulting QP's own snapshot.
        qp = self.rnic._qps.get(qpn)  # noqa: SLF001 - same-device lookup
        m = getattr(qp, "mitigation", None) or self.rnic.mitigation
        if m is not None and m.pin_pages:
            # Fault feedback is the dynamic-pin speculation signal: the
            # faulting QP still pays this fault in full (driver + one
            # engine update); once the tally crosses the threshold the
            # page pins and every *later* QP bypasses the engine.
            self._note_pin_feedback(mr, page, m)
        tel = self.rnic.telemetry
        if tel is not None:
            tel.mark(("fault", qpn, mr.handle, page), self.sim.now)
        fresh = Future(label=f"fresh:{key}")
        self._fresh_futures[key] = fresh
        if self.rnic.translation.is_mapped(mr, page):
            self.rnic.status_engine.enqueue_resume(
                qpn, mr.handle, page, lambda: self._on_resume(key, fresh))
        else:
            fault_done = self.rnic.driver.request_fault(self.rnic, mr, page)
            fault_done.add_callback(
                lambda _f: self.rnic.status_engine.enqueue_resume(
                    qpn, mr.handle, page,
                    lambda: self._on_resume(key, fresh))
            )
        return fresh

    def _on_resume(self, key: QpPageKey, fresh: Future) -> None:
        if key in self._stale:
            self._stale.remove(key)
            qpn = key[0]
            remaining = self._stale_by_qpn.get(qpn, 0) - 1
            if remaining <= 0:
                self._stale_by_qpn.pop(qpn, None)
            else:
                self._stale_by_qpn[qpn] = remaining
        self._view_by_page.setdefault((key[1], key[2]), set()).add(key[0])
        self._fresh_futures.pop(key, None)
        tel = self.rnic.telemetry
        if tel is not None:
            tel.complete_mark(("fault",) + key, self.sim.now,
                              "odp.fault_resolved", self.rnic.lid, key[0],
                              key[2])
        self._bump_view_gen()  # resolve transition: cached "not ready"
        fresh.resolve(key[2])

    # ------------------------------------------------------------------
    # Dynamic pin (NP-RDMA-style page-presence speculation)
    # ------------------------------------------------------------------

    def _note_pin_feedback(self, mr: "MemoryRegion", page: int,
                           strategy) -> None:
        """Tally fault feedback; pin the page once it crosses the
        strategy's threshold."""
        key = (mr.handle, page)
        if key in self._pinned:
            return
        count = self._pin_feedback.get(key, 0) + 1
        self._pin_feedback[key] = count
        if count >= strategy.pin_fault_threshold:
            self._install_pin(mr, page, strategy)

    def _install_pin(self, mr: "MemoryRegion", page: int, strategy) -> None:
        """Speculate the page hot: make it resident (restoring swapped
        bytes), pin it against reclaim, install a sticky translation,
        and exempt it from per-QP status updates.  Over budget, the
        least-recently-hit pin releases back to plain ODP — graceful
        degradation, never a hard failure."""
        key = (mr.handle, page)
        mr.vm._restore_or_materialise(page)  # noqa: SLF001
        mr.vm.pin_range(page * PAGE_SIZE, 1)
        self.rnic.translation.map_page(mr, page)
        self.rnic.translation.pin_page(mr, page)
        self._pinned.add(key)
        self._pin_lru[key] = mr
        self._pin_feedback.pop(key, None)
        self.pins_installed += 1
        self._bump_view_gen()  # cached "not ready" verdicts are stale
        tel = self.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "mitigate.pin", self.rnic.lid,
                        mr.handle, page)
        while len(self._pinned) > strategy.pin_budget_pages:
            self._release_oldest_pin()

    def _release_oldest_pin(self) -> None:
        """LRU budget release: back to plain ODP (translation stays
        until the kernel reclaims it; per-QP views rebuild on demand)."""
        key, mr = self._pin_lru.popitem(last=False)
        self._pinned.discard(key)
        self.rnic.translation.unpin_page(mr, key[1])
        mr.vm.unpin_range(key[1] * PAGE_SIZE, 1)
        self.pins_released += 1
        self._bump_view_gen()  # cached "ready" verdicts may rest on it

    def pinned_pages(self) -> int:
        """Pages currently held by the dynamic-pin mitigation."""
        return len(self._pinned)

    # ------------------------------------------------------------------
    # Prefetch / prewarm
    # ------------------------------------------------------------------

    def advise_range(self, mr: "MemoryRegion", addr: int,
                     size: int) -> Optional[Future]:
        """``ibv_advise_mr``-style prefetch: resolve translations for the
        range ahead of traffic (the receiver-side prefetch that Li et
        al. [20] found effective).  Per-QP views are *not* touched —
        each QP still pays its first status update.  Returns a future
        resolving when every requested fault lands, or None when the
        range was already fully mapped."""
        futures = [self.rnic.driver.request_fault(self.rnic, mr, page)
                   for page in self.rnic.translation.missing_pages(
                       mr, addr, size)]
        if not futures:
            return None
        return all_of(futures, label=f"advise:{mr.handle}")

    def prewarm_views(self, qpns, mr: "MemoryRegion",
                      addr: int, size: int) -> None:
        """Mark the range warm for the given QPs, modelling earlier
        traffic that already populated both the translation table and
        the per-QP status views (e.g. prior job stages)."""
        handle = mr.handle
        for page in mr.pages_of_range(addr, size):
            mr.vm._restore_or_materialise(page)  # noqa: SLF001
            self.rnic.translation.map_page(mr, page)
            self._view_by_page.setdefault((handle, page), set()).update(qpns)
        self._bump_view_gen()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def on_page_invalidated(self, mr: "MemoryRegion", page: int) -> None:
        """Purge every QP's view of an invalidated page."""
        if self._view_by_page.pop((mr.handle, page), None):
            self._bump_view_gen()  # cached "ready" verdicts are now stale

    # ------------------------------------------------------------------

    def next_transition_at(self):
        """Absolute time of the status engine's next scheduled state
        transition, or None while it is idle (passthrough used by the
        storm coalescer as a cheap steady-state pre-filter)."""
        return self.rnic.status_engine.next_transition_at()

    def stale_entries(self) -> int:
        """Number of (QP, page) views currently stale (flood intensity)."""
        return len(self._stale)

    def stale_qp_count(self) -> int:
        """Distinct QPs with at least one stale page view."""
        return len(self._stale_by_qpn)

    def retransmit_load(self, cap: int) -> int:
        """Retransmission pressure: outstanding READ window summed over
        stale QPs (feeds the status engine's congestion law).

        The walk stops once the sum reaches ``cap``: the congestion law
        clamps its load to the backlog cap, so a partial sum at or past
        it gives the same service cost as the full one.  Deep floods
        have hundreds of stale QPs and are capped on almost every
        service, so this bounds the walk per service by the cap instead
        of the stale-QP count.
        """
        load = 0
        qps = self.rnic._qps  # noqa: SLF001 - same device
        for qpn in self._stale_by_qpn:
            qp = qps.get(qpn)
            if qp is None:
                continue
            # len(requester.wqes) is the ``outstanding`` property,
            # inlined: this runs once per status-engine service, over
            # the stale QPs, in deep floods.
            pending = len(qp.requester.wqes)
            # send_window() inlined (strategy BDP bound over the verbs
            # depth).
            window = qp.attrs.max_rd_atomic
            m = qp.mitigation
            if m is not None and m.bdp_packets and m.bdp_packets < window:
                window = m.bdp_packets
            load += pending if pending < window else window
            if load >= cap:
                break
        return load
