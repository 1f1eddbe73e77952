"""Steady-state storm coalescing: closed-form fast-forward of flood rounds.

The packet flood of Section VI is *literally periodic*: a stale QP
retransmits its READ window every blind tick (client-side ODP), and
every packet of the round is discarded or duplicated in exactly the
same way until the ODP status engine finally refreshes the QP's view.
Simulating hundreds of simulated seconds of that loop one packet event
at a time is what makes the fig09 sweep the repository's wall-clock
bottleneck; NP-RDMA and
Psistakis et al. model the same fault-service windows in closed form,
and so can the simulator.

A :class:`StormCoalescer` hangs off every QP.  When the requester is
about to replay a storm round it asks the coalescer first; the coalescer
re-derives, *from current component state only*, the exact cascade the
per-packet engine would execute — NIC pipeline drain times, link
serialisation with the link's own cached quantised values, switch
forwarding, remote dispatch, and the response/NAK path back — and, when
the round provably cannot interact with anything else, applies all of
its effects in one macro-event:

* every counter the cascade would touch (requester/responder stats, NIC
  stats, per-port network stats, link and switch counters) is advanced
  by the synthesised amounts;
* link transmitters are occupied via :meth:`LinkEnd.bulk_occupy` to the
  same ``busy_until`` a packet-by-packet replay would leave;
* packet serial numbers are advanced so later *real* packets number
  identically;
* RNG draws are consumed in exactly the order the real round would draw
  them, keeping the shared stream aligned;
* synthetic capture rows are fed to every tap that registered a
  synthetic sink (every :class:`~repro.capture.sniffer.Sniffer` does).

Eligibility is deliberately strict — the round is only synthesised when
``Simulator.quiet_until(span_end)`` proves no other event fires inside
the round's span *and* per-QP state checks prove every packet of the
round takes the known storm path.  Any doubt falls back to the real
per-packet cascade, so enabling coalescing can never change a reported
metric: it is exact or it does not engage.

Because consecutive rounds of one QP are *identical* — same WQEs, same
PSNs, same responder view, links idle at the tick — the first synthesis
of a round memoises its whole closed form (aggregate counters, the
timeline relative to the tick, capture-row template) in a
:class:`_BlindRound`.  Subsequent ticks revalidate the memo with O(W)
identity/equality checks (same WQE objects and PSNs, same ePSN, same
translation generation, same MRs, links idle) and re-apply it without
touching the fabric arithmetic at all; any mismatch falls back to the
full derivation.  This is what makes a coalesced round an order of
magnitude cheaper than its per-packet replay rather than merely
cheaper.

``RNIC.coalesce`` is the one switch for every tier: single-QP blind
rounds (memoised after the first), joint multi-QP rounds and fleet
sweeps (:meth:`StormCoalescer.maybe_fleet`), which absorb a whole
horizon of sibling blind ticks in one batched flush when payloads are
lazy and no observer watches the pair.  Off, every round takes the
per-packet reference path.  Server-side RNR recovery rounds (Figure 1,
left) always replay per packet: each waits out an RNR delay, so they
are rare next to blind rounds and keep no closed form.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ib.opcodes import Opcode
from repro.ib.packets import (BASE_HEADER_BYTES, RETH_BYTES,
                              advance_packet_serials)
from repro.ib.transport.psn import psn_add, psn_diff
from repro.ib.transport.responder import Responder
from repro.ib.verbs.enums import Access, QpState
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.verbs.qp import QueuePair

#: Wire size of a storm READ request.
_REQ_WIRE = BASE_HEADER_BYTES + RETH_BYTES

#: Events a packet costs on the per-packet path: tx drain, switch
#: forward (the uplink delivery itself, ``forward_ns`` after the wire
#: arrival), downlink arrival, rx dispatch.
_EVENTS_PER_PACKET = 4

#: Requester state constants, resolved once on first use: the requester
#: module imports this one, so a top-level import would be circular, and
#: the ``from … import`` machinery is measurable on the per-tick paths.
_STATES: Optional[Tuple[str, str]] = None


def _requester_states() -> Tuple[str, str]:
    """(STATE_NORMAL, STATE_ODP_WAIT), cached."""
    global _STATES
    states = _STATES
    if states is None:
        from repro.ib.transport.requester import (STATE_NORMAL,
                                                  STATE_ODP_WAIT)
        states = _STATES = (STATE_NORMAL, STATE_ODP_WAIT)
    return states


class _BlindRound:
    """The memoised closed form of one QP's repeating blind round.

    Everything here is either an aggregate the apply step adds to a
    counter, or a timestamp *relative to the tick* — valid whenever the
    links are idle at the tick, which the fast path checks (and which
    always holds after a coalesced round: its span ends before the next
    scheduled event by construction).
    """

    __slots__ = ("emit", "psns", "epsn", "tgen", "peer_qp", "mrs",
                 "head_mr", "head_addr", "head_chunk", "count",
                 "responses", "req_bytes", "resp_bytes", "rel_span",
                 "rel_interact", "rel_busy", "rel_flaw_until", "rel_rows",
                 "events", "wqe_chunks", "shape_key")


class _JointMember:
    """One participant of a jointly synthesised multi-QP storm round.

    When several stale QPs' blind ticks land inside one another's round
    span, the real engine interleaves their packets through the NICs'
    round-robin tx rings.  That interleave is itself closed-form: the
    ring discipline is deterministic, so the merged drain schedule (and
    everything downstream of it) can be computed exactly and all the
    participating rounds applied as one macro-event.
    """

    __slots__ = ("tick", "req", "qp", "peer_qp", "resp", "emit", "psns",
                 "count", "wqe_chunks", "responses", "resp_bytes",
                 "last_req_disp")


class StormCoalescer:
    """Per-QP steady-state detector and macro-event synthesiser."""

    def __init__(self, qp: "QueuePair"):
        self.qp = qp
        self.sim = qp.rnic.sim
        #: Blind (client-side ODP) rounds applied in closed form.
        self.blind_rounds = 0
        #: Rounds declined by an eligibility check (fell back to the
        #: real per-packet path).
        self.declined_rounds = 0
        #: Decline tally by eligibility check, for diagnosing why a
        #: workload is not coalescing (sum it over a cluster's QPs, as
        #: ``tests/test_mitigate.py`` does).  Declines already pay for
        #: a full per-packet round, so the bookkeeping here is noise.
        self.decline_reasons: Dict[str, int] = {}
        #: Pure damming stalls observed: transport timeouts that fired
        #: with zero progress, i.e. windows the QP spent fully idle.
        #: A discrete-event simulator already "fast-forwards" these (one
        #: pending timer, one clock jump); the classification feeds the
        #: benchmarks' accounting of skipped simulated time.
        self.stall_timeouts = 0
        self.stalled_ns = 0
        self._blind_cache: Optional[_BlindRound] = None
        #: Jointly synthesised rounds this QP *initiated* (its tick
        #: computed and applied the merged cascade).
        self.joint_rounds = 0
        #: Future blind ticks this QP's fleet sweeps absorbed (their
        #: rounds applied and their timers retired ahead of time).
        #: Bookkeeping, like ``joint_rounds``: execution-shape detail,
        #: not a reported metric.
        self.fleet_rounds = 0
        #: Set when this QP's own tick just replayed its memo with the
        #: links idle — the precondition for :meth:`maybe_fleet` to
        #: sweep the upcoming horizon.
        self._fleet_ready = False
        #: Set by another QP's joint synthesis that already applied this
        #: QP's next round: the tick time whose firing is pre-paid.  The
        #: tick still fires so its re-arm RNG draw lands in real order.
        self._joint_pending: Optional[int] = None
        #: Memoised :meth:`_storm_links` result — link ends are created
        #: at topology build and never replaced, so the lookup is pure.
        self._links_cache: Optional[Tuple] = None

    @property
    def rounds_coalesced(self) -> int:
        """Total storm rounds applied as macro-events."""
        return self.blind_rounds

    def note_stall(self, waited_ns: int) -> None:
        """Record a pure damming stall (timeout with no progress)."""
        self.stall_timeouts += 1
        self.stalled_ns += waited_ns

    def _decline(self, reason: str) -> bool:
        """Count one fallback to the per-packet path; returns False."""
        self.declined_rounds += 1
        reasons = self.decline_reasons
        reasons[reason] = reasons.get(reason, 0) + 1
        return False

    # ------------------------------------------------------------------
    # Shared gating
    # ------------------------------------------------------------------

    def _peer(self):
        """(network, peer rnic, peer QP) when both ends allow coalescing
        and no observer forces this pair onto the per-packet path."""
        qp = self.qp
        rnic = qp.rnic
        if not rnic.coalesce:
            return None
        network = rnic.network
        peer_rnic = network.devices.get(qp.remote_lid)
        if peer_rnic is None or not getattr(peer_rnic, "coalesce", False):
            return None
        if network.requires_real(rnic.lid, qp.remote_lid):
            return None
        peer_qp = peer_rnic._qps.get(qp.remote_qpn)  # noqa: SLF001
        if peer_qp is None or peer_qp.state is QpState.ERROR:
            return None
        return network, peer_rnic, peer_qp

    def _retransmit_set(self):
        """The WQEs ``_retransmit_from_oldest`` would re-emit right now,
        or None when the burst would not be a pure all-READ replay."""
        req = self.qp.requester
        window = self.qp.attrs.max_rd_atomic
        in_flight = 0
        emit = []
        for wqe in req.wqes:
            if wqe.resp_needed > 0 and in_flight >= window:
                break  # initiator depth exhausted, like the real loop
            if not wqe.is_read or not wqe.transmitted:
                return None  # WRITE/SEND/atomic or fresh emission: real path
            emit.append(wqe)
            in_flight += 1
        return emit

    def _retransmit_matches(self, cached) -> bool:
        """True iff :meth:`_retransmit_set` would return exactly the
        memoised WQE sequence — the same walk, comparing in place
        instead of building a list (this runs on every storm tick).

        Identity with the memoised objects stands in for the purity
        checks: ``is_read`` derives from the WQE's immutable opcode and
        ``transmitted`` is never reset once True, and the memo build
        proved both for exactly these objects.
        """
        window = self.qp.attrs.max_rd_atomic
        ncached = len(cached)
        i = 0
        for wqe in self.qp.requester.wqes:
            if wqe.resp_needed > 0 and i >= window:
                break
            if i >= ncached or wqe is not cached[i]:
                return False
            i += 1
        return i == ncached

    @staticmethod
    def _through_fabric(enq: List[int], wires: List[int], tx_ns: int,
                        up, down, forward_ns: int, rx_ns: int
                        ) -> Tuple[List[int], List[int], int, int]:
        """Drain and dispatch times for packets entering one NIC's tx
        pipeline at ``enq`` times, plus the final busy values of both
        link directions.

        Mirrors the real cascade arithmetic exactly: the pipeline drains
        one packet per ``tx_ns`` (restarting when it went idle), each
        link end serialises back to back from its running ``busy_until``
        using its own cached 8 ns-quantised :meth:`serialization_ns`,
        the switch adds its cut-through latency, and the receiver's rx
        pipeline delay lands the dispatch.
        """
        drains: List[int] = []
        dispatches: List[int] = []
        busy_up = up._busy_until  # noqa: SLF001 - closed-form replay
        busy_down = down._busy_until  # noqa: SLF001
        up_prop = up.propagation_ns
        down_prop = down.propagation_ns
        drain = None
        for when, wire in zip(enq, wires):
            drain = (when if drain is None or when >= drain else drain) + tx_ns
            drains.append(drain)
            start = drain if drain > busy_up else busy_up
            busy_up = start + up.serialization_ns(wire)
            at_switch = busy_up + up_prop + forward_ns
            start = at_switch if at_switch > busy_down else busy_down
            busy_down = start + down.serialization_ns(wire)
            dispatches.append(busy_down + down_prop + rx_ns)
        return drains, dispatches, busy_up, busy_down

    def _storm_links(self, network, peer_rnic):
        """The four link ends a round occupies, in cascade order.

        Memoised per (network, peer): the ends are attached once at
        topology build, and this runs on every storm tick and sweep.
        """
        cached = self._links_cache
        if cached is not None and cached[0] is network \
                and cached[1] is peer_rnic:
            return cached[2]
        links = network._links  # noqa: SLF001
        rnic = self.qp.rnic
        ends = (links[rnic.lid].a_to_b, links[peer_rnic.lid].b_to_a,
                links[peer_rnic.lid].a_to_b, links[rnic.lid].b_to_a)
        self._links_cache = (network, peer_rnic, ends)
        return ends

    @staticmethod
    def _complete_tolerable(event, interact_end: int, span_end: int,
                            member_qpns) -> bool:
        """True when a page-status engine ``_complete`` firing inside
        the span provably cannot interact with the round.

        Page-status views are per-QP, so an update that resumes a QP
        outside the round only touches that QP's own verdicts: every
        readiness query this round depends on (the client's range-ready
        discard checks, the responder's translation checks) keys on a
        participant's QPN and stays stable.  The resumed QP's follow-on
        work (its retransmission burst, its timer churn) starts at the
        completion time, so requiring that to land after ``interact_end``
        puts it behind the round's last shared-resource touch — same
        argument as the tolerated tail ticks.  The one chain this event
        can start *inside* the span is the engine's next service; its
        cost is at least ``status_resume_ns`` (congestion factor >= 1),
        so when even that floor lands past ``span_end`` no second
        transition can fire within the round.
        """
        if event.time <= interact_end:
            return False
        args = event.args
        if len(args) != 1:
            return False
        qpn = getattr(args[0], "qpn", None)
        if qpn is None or qpn in member_qpns:
            return False
        profile = getattr(getattr(event.fn, "__self__", None), "profile",
                          None)
        floor = getattr(profile, "status_resume_ns", None)
        return floor is not None and event.time + floor > span_end

    def _span_clear(self, interact_end: int, span_end: int,
                    ignore=None) -> bool:
        """True when nothing that fires inside the round's span can
        interact with it.

        The common case is a fully quiet window.  Three exceptions are
        tolerated.  *Another* stale QP's blind tick landing strictly
        after ``interact_end`` — the time of this round's last touch on
        any shared resource (the tx pipelines, the link transmitters,
        packet-serial assignment; everything later is per-packet rx work
        on private state).  Such a tick only enqueues its own packets
        onto pipelines this round has already left idle and serialises
        behind the ``busy_until`` values this round has already applied,
        and both its RNG draws and its packet creations come after all
        of this round's — so both rounds replay exactly as the
        per-packet engine would have interleaved them.  A
        ``_do_fault_raise`` tick whose requester is already out of
        ``STATE_NORMAL``: that handler returns before touching anything
        (no reads, no writes, no draws), and with every other span event
        excluded nothing can flip the state back before it fires.  And a
        page-status ``_complete`` that resumes a *different* QP pair
        after ``interact_end`` (see :meth:`_complete_tolerable`).
        Anything else inside the span (driver completions, in-flight
        packet hops) declines the round.

        ``ignore`` skips one still-pending event: the fleet
        fast-forward vets a member round *before* retiring the member's
        own tick event, which would otherwise trip its own span walk.
        """
        sim = self.sim
        if sim.quiet_until(span_end):
            return True
        STATE_NORMAL = _requester_states()[0]
        qp = self.qp
        req = qp.requester
        member_qpns = (qp.qpn, qp.remote_qpn)
        for event in sim.live_events_until(span_end):
            if event is ignore:
                continue
            fn = event.fn
            name = getattr(fn, "__name__", None)
            if (name == "_blind_retransmit" and event.time > interact_end
                    and getattr(fn, "__self__", None) is not req):
                continue
            if name == "_do_fault_raise":
                owner = getattr(fn, "__self__", None)
                if owner is not None and owner.state != STATE_NORMAL:
                    continue
            if (name == "_complete"
                    and self._complete_tolerable(event, interact_end,
                                                 span_end, member_qpns)):
                continue
            return False
        return True

    # ------------------------------------------------------------------
    # Type A: client-side ODP blind-retransmit round
    # ------------------------------------------------------------------

    def coalesce_blind_round(self) -> bool:
        """Synthesise one blind retransmission round (Figure 1, right):
        the whole window of READs replays as duplicates at the responder,
        every response is discarded at the stale client.  Returns True
        when the round was applied in closed form."""
        self._fleet_ready = False
        m = self.qp.mitigation
        if m is not None and not m.coalesce_compatible:
            # The strategy rewrites the burst the closed form replays
            # (selective repeat, BDP windows): decline to the scalar
            # path with a tallied reason — never silently diverge.
            return self._decline("mitigation")
        pending = self._joint_pending
        if pending is not None:
            self._joint_pending = None
            if pending == self.sim.now:
                # This round's effects were applied by the joint
                # synthesis an earlier participant's tick initiated (the
                # span-clearance proof guarantees nothing ran in
                # between).  Only the re-arm — and its RNG draw, in real
                # order — remains, and _blind_retransmit does that next.
                self.blind_rounds += 1
                return True
        peer = self._peer()
        if peer is None:
            return False
        cache = self._blind_cache
        if cache is not None and self._retransmit_matches(cache.emit):
            # Steady state: the burst is the memoised sequence (purity
            # included — the match walk re-proves all-READ/transmitted),
            # so skip rebuilding the emit list on this hot tick.
            emit = cache.emit
        else:
            emit = self._retransmit_set()
            if not emit:
                return self._decline("burst_shape")
        head = emit[0]
        # The client must stay stale for the whole round: the head
        # response must take exactly the established discard path (fault
        # already registered, blind timer pending — so the discard is a
        # pure counter bump).
        if not head.fault_wait_registered:
            return self._decline("head_not_waiting")
        if cache is not None:
            applied = self._blind_fast(peer, emit, cache)
            if applied is not None:
                self._fleet_ready = applied is True
                return applied
        applied = self._blind_slow(peer, list(emit), head)
        self._fleet_ready = applied and self._blind_cache is not None
        return applied

    def _blind_fast(self, peer, emit, c: _BlindRound, t: Optional[int] = None,
                    fleet_event=None) -> Optional[bool]:
        """Replay the memoised round.  Returns True (applied), False
        (eligible memo but the round declined — already tallied), or
        None (memo stale: fall through to the full derivation).

        The fleet fast-forward replays *future* ticks from the batch's
        own instant: ``t`` overrides the tick time (every timestamp in
        the memo is tick-relative, so the apply is exact at any proven
        tick), and ``fleet_event`` is the member's still-pending tick
        event, excluded from the span walk.  In fleet mode every
        fallback — joint synthesis, decline tallies — returns None
        instead: the member's real tick stays armed and handles its own
        round, so no bookkeeping is double-counted.
        """
        network, peer_rnic, peer_qp = peer
        # The memo is only t-independent in lazy-payload mode (no VM
        # residency to re-prove) and for this exact peer.
        if peer_qp is not c.peer_qp or not peer_rnic.lazy_payloads:
            return None
        psns = c.psns
        if emit is not c.emit:
            # Re-derived burst: memo only replays the exact sequence.
            # (When ``emit is c.emit`` the match walk proved identity,
            # and ``first_psn`` is assigned once at WQE creation, so the
            # PSN sequence cannot have drifted either.)
            cached_emit = c.emit
            if len(emit) != len(cached_emit):
                return None
            for wqe, known in zip(emit, cached_emit):
                if wqe is not known:
                    return None
            for index, wqe in enumerate(emit):
                if wqe.first_psn != psns[index]:
                    return None
        resp = peer_qp.responder
        if resp.epsn != c.epsn:
            return None
        # Same generation ⟹ identical translation verdicts: every
        # duplicate still finds its pages DMA-able (or not) exactly as
        # when the memo was built.
        if peer_rnic.translation.generation != c.tgen:
            return None
        for rkey, rmr in c.mrs:
            if peer_rnic.mr_by_rkey(rkey) is not rmr:
                return None
        qp = self.qp
        rnic = qp.rnic
        sim = self.sim
        if t is None:
            t = sim.now
        up_a, down_b, up_b, down_a = self._storm_links(network, peer_rnic)
        if (up_a._busy_until > t or down_b._busy_until > t  # noqa: SLF001
                or up_b._busy_until > t
                or down_a._busy_until > t):  # noqa: SLF001
            return None  # carried-over serialisation: re-derive
        span_end = t + c.rel_span
        interact_end = t + c.rel_interact
        next_transition = rnic.odp.next_transition_at()
        if next_transition is not None and next_transition <= interact_end:
            return None if fleet_event is not None \
                else self._decline("page_transition")
        if not self._span_clear(interact_end, span_end, ignore=fleet_event):
            return None if fleet_event is not None \
                else self._blind_joint(peer)
        # Same query, same key as the real discard path — memoisation
        # counters advance identically; a ready page ends the storm.
        if rnic.odp.requester_range_ready(qp.qpn, c.head_mr, c.head_addr,
                                          c.head_chunk):
            return None if fleet_event is not None \
                else self._decline("client_ready")

        # --- Apply from the memo ---
        req = qp.requester
        count = c.count
        responses = c.responses
        for wqe in emit:
            wqe.resp_received = 0
        req.retransmitted_packets += count
        req.responses_discarded_odp += 1
        req._progress_stamp += 1  # noqa: SLF001 - timer_only progress note
        client_stats = rnic.stats
        client_stats["tx_packets"] += count
        client_stats["tx_retransmissions"] += count
        client_stats["rx_packets"] += responses
        server_stats = peer_rnic.stats
        server_stats["rx_packets"] += count
        server_stats["tx_packets"] += responses
        # ``_note_seen`` is monotone max-tracking and the memo build
        # already noted every PSN of this (epsn-frozen) sequence, so
        # re-noting is a provable no-op and is skipped; the faulted-PSN
        # clears only matter while the set is non-empty.
        faulted = resp._faulted_psns  # noqa: SLF001
        if faulted:
            for psn in psns:
                faulted.discard(psn)
        resp.duplicates_serviced += count
        if c.rel_flaw_until is not None:
            resp._flaw_drop_until = t + c.rel_flaw_until  # noqa: SLF001
        port_a = network.stats[rnic.lid]
        port_b = network.stats[peer_rnic.lid]
        req_bytes = c.req_bytes
        resp_bytes = c.resp_bytes
        port_a.tx_packets += count
        port_a.tx_bytes += req_bytes
        port_a.rx_packets += responses
        port_a.rx_bytes += resp_bytes
        port_b.tx_packets += responses
        port_b.tx_bytes += resp_bytes
        port_b.rx_packets += count
        port_b.rx_bytes += req_bytes
        rel_busy = c.rel_busy
        up_a.bulk_occupy(count, req_bytes, t + rel_busy[0])
        down_b.bulk_occupy(count, req_bytes, t + rel_busy[1])
        up_b.bulk_occupy(responses, resp_bytes, t + rel_busy[2])
        down_a.bulk_occupy(responses, resp_bytes, t + rel_busy[3])
        network.switch.forwarded += count + responses
        advance_packet_serials(count + responses)
        sinks = network.synthetic_sinks(rnic.lid, peer_rnic.lid)
        if sinks:
            rows = [(t + row[0],) + row[1:] for row in c.rel_rows]
            for sink in sinks:
                sink(rows)
        sim.note_coalesced(c.events, c.rel_span)
        self.blind_rounds += 1
        return True

    def _blind_slow(self, peer, emit, head) -> bool:
        """Full derivation of one blind round; memoises the result when
        the tick started from idle links (so the memo is t-independent).
        """
        network, peer_rnic, peer_qp = peer
        qp = self.qp
        rnic = qp.rnic
        req = qp.requester
        hw = head.wr
        mr = hw.local.mr if hw.local is not None else None
        if mr is None or not mr.mode.is_odp:
            return self._decline("head_not_odp")
        mtu = rnic.profile.mtu
        head_chunk = min(mtu, hw.local.length)
        # Same query, same key, same order as the real discard path —
        # the memoisation counters must advance identically.
        if rnic.odp.requester_range_ready(qp.qpn, mr, hw.local.addr,
                                          head_chunk):
            return self._decline("client_ready")
        # Responder side: every request must be a pure duplicate READ
        # (PSN behind the ePSN) whose pages are DMA-able right now.
        resp = peer_qp.responder
        lazy = peer_rnic.lazy_payloads
        chunk_sizes: List[int] = []
        per_wqe_chunks: List[int] = []
        rmrs: Dict[int, object] = {}
        for wqe in emit:
            wr = wqe.wr
            if psn_diff(wqe.first_psn, resp.epsn) >= 0:
                return self._decline("not_duplicate")
            length = wr.local.length
            rmr = resp._validate(wr.remote.rkey, wr.remote.addr,  # noqa: SLF001
                                 length, Access.REMOTE_READ)
            if rmr is None:
                return self._decline("validate")
            if rmr.mode.is_odp and not peer_rnic.odp.responder_range_ready(
                    rmr, wr.remote.addr, length):
                return self._decline("server_not_ready")
            if not lazy:
                # Eager payloads DMA-read the region; that is only free
                # of side effects when every page is already resident.
                pages = rmr.vm._pages  # noqa: SLF001
                if any(page not in pages for page in
                       rmr.pages_of_range(wr.remote.addr, length)):
                    return self._decline("pages_not_resident")
            rmrs[wr.remote.rkey] = rmr
            sizes = [min(mtu, length - off)
                     for off in range(0, length, mtu)] or [0]
            per_wqe_chunks.append(len(sizes))
            chunk_sizes.extend(sizes)
        # Closed-form cascade timing.
        sim = self.sim
        t = sim.now
        count = len(emit)
        up_a, down_b, up_b, down_a = self._storm_links(network, peer_rnic)
        idle_links = (up_a._busy_until <= t  # noqa: SLF001
                      and down_b._busy_until <= t  # noqa: SLF001
                      and up_b._busy_until <= t  # noqa: SLF001
                      and down_a._busy_until <= t)  # noqa: SLF001
        forward_ns = network.switch.forward_ns
        req_drains, req_disp, up_a_busy, down_b_busy = self._through_fabric(
            [t] * count, [_REQ_WIRE] * count, rnic.profile.tx_proc_ns,
            up_a, down_b, forward_ns, peer_rnic.profile.rx_proc_ns)
        resp_enq: List[int] = []
        for when, chunks in zip(req_disp, per_wqe_chunks):
            resp_enq.extend([when] * chunks)
        resp_wires = [BASE_HEADER_BYTES + size for size in chunk_sizes]
        resp_drains, resp_disp, up_b_busy, down_a_busy = self._through_fabric(
            resp_enq, resp_wires, peer_rnic.profile.tx_proc_ns,
            up_b, down_a, forward_ns, rnic.profile.rx_proc_ns)
        span_end = max(req_disp[-1], resp_disp[-1])
        # The round's last touch on shared state: the final response
        # leaving the server's tx pipeline (later than the last request
        # drain, the last packet creation, and every link transmission).
        interact_end = resp_drains[-1]
        # A scheduled page-status transition up to ``interact_end``
        # would end the storm mid-round (cheap pre-filter for the common
        # cause; a later one is vetted by the span-event walk)...
        next_transition = rnic.odp.next_transition_at()
        if next_transition is not None and next_transition <= interact_end:
            return self._decline("page_transition")
        # ...and the global gate: nothing interacting may fire inside
        # the span (foreign blind ticks past ``interact_end`` are fine;
        # ticks before it may still merge into a joint round).
        if not self._span_clear(interact_end, span_end):
            return self._blind_joint(peer)

        # --- Apply: every effect of the per-packet cascade, in bulk ---
        responses = len(chunk_sizes)
        for wqe in emit:
            wqe.resp_received = 0  # reset on re-emission
        req.retransmitted_packets += count
        # Only the head's first chunk hits the expected PSN; it takes
        # the discard path once per round, the rest drop silently.
        req.responses_discarded_odp += 1
        req._progress_stamp += 1  # noqa: SLF001 - timer_only progress note
        client_stats = rnic.stats
        client_stats["tx_packets"] += count
        client_stats["tx_retransmissions"] += count
        client_stats["rx_packets"] += responses
        server_stats = peer_rnic.stats
        server_stats["rx_packets"] += count
        server_stats["tx_packets"] += responses
        for wqe in emit:
            resp._note_seen(wqe.first_psn)  # noqa: SLF001
            resp._faulted_psns.discard(wqe.first_psn)  # noqa: SLF001
        resp.duplicates_serviced += count
        rel_flaw_until: Optional[int] = None
        if peer_rnic.profile.damming_flaw:
            # Each replayed service re-arms the flaw window; the last
            # one (at the final request dispatch) wins.
            rel_flaw_until = (req_disp[-1] - t
                              + peer_rnic.profile.damming_window_ns)
            resp._flaw_drop_until = t + rel_flaw_until  # noqa: SLF001
        req_bytes = count * _REQ_WIRE
        resp_bytes = sum(resp_wires)
        port_a = network.stats[rnic.lid]
        port_b = network.stats[peer_rnic.lid]
        port_a.tx_packets += count
        port_a.tx_bytes += req_bytes
        port_a.rx_packets += responses
        port_a.rx_bytes += resp_bytes
        port_b.tx_packets += responses
        port_b.tx_bytes += resp_bytes
        port_b.rx_packets += count
        port_b.rx_bytes += req_bytes
        up_a.bulk_occupy(count, req_bytes, up_a_busy)
        down_b.bulk_occupy(count, req_bytes, down_b_busy)
        up_b.bulk_occupy(responses, resp_bytes, up_b_busy)
        down_a.bulk_occupy(responses, resp_bytes, down_a_busy)
        network.switch.forwarded += count + responses
        advance_packet_serials(count + responses)
        rows = None
        sinks = network.synthetic_sinks(rnic.lid, peer_rnic.lid)
        if sinks:
            rows = self._capture_rows(emit, req_drains, per_wqe_chunks,
                                      chunk_sizes, resp_drains)
            for sink in sinks:
                sink(rows)
        events = _EVENTS_PER_PACKET * (count + responses)
        sim.note_coalesced(events, span_end - t)
        self.blind_rounds += 1

        if lazy and idle_links:
            c = _BlindRound()
            c.emit = tuple(emit)
            c.psns = tuple(wqe.first_psn for wqe in emit)
            c.epsn = resp.epsn
            c.tgen = peer_rnic.translation.generation
            c.peer_qp = peer_qp
            c.mrs = tuple(rmrs.items())
            c.head_mr = mr
            c.head_addr = hw.local.addr
            c.head_chunk = head_chunk
            c.count = count
            c.responses = responses
            # Per-WQE chunk-size lists, for joint-round member reuse
            # (time-independent, like everything else in the memo).
            nested: List[Tuple[int, ...]] = []
            pos = 0
            for chunks in per_wqe_chunks:
                nested.append(tuple(chunk_sizes[pos:pos + chunks]))
                pos += chunks
            c.wqe_chunks = tuple(nested)
            c.req_bytes = req_bytes
            c.resp_bytes = resp_bytes
            c.rel_span = span_end - t
            c.rel_interact = interact_end - t
            c.rel_busy = (up_a_busy - t, down_b_busy - t,
                          up_b_busy - t, down_a_busy - t)
            c.rel_flaw_until = rel_flaw_until
            if rows is None:
                rows = self._capture_rows(emit, req_drains, per_wqe_chunks,
                                          chunk_sizes, resp_drains)
            c.rel_rows = tuple((row[0] - t,) + row[1:] for row in rows)
            c.events = events
            # The tick-relative template a fleet sweep must hold constant
            # across members, precomputed (memos are immutable once
            # built) so the sweep compares one tuple per member.
            c.shape_key = (c.count, c.responses, c.req_bytes, c.resp_bytes,
                           c.rel_span, c.rel_interact, c.rel_busy,
                           c.rel_flaw_until, c.events)
            self._blind_cache = c
        return True

    def _capture_rows(self, emit, req_drains, per_wqe_chunks, chunk_sizes,
                      resp_drains) -> List[Tuple]:
        """The tap rows the round's packets would have produced, merged
        into injection-time order (requests win timestamp ties: a drain
        event created earlier fires first at equal times)."""
        qp = self.qp
        lid, rlid = qp.rnic.lid, qp.remote_lid
        qpn, rqpn = qp.qpn, qp.remote_qpn
        request_rows = [
            (when, lid, rlid, qpn, rqpn, Opcode.RDMA_READ_REQUEST,
             wqe.first_psn, 0, None, True)
            for when, wqe in zip(req_drains, emit)]
        response_rows = []
        cursor = 0
        for wqe, chunks in zip(emit, per_wqe_chunks):
            for index in range(chunks):
                response_rows.append(
                    (resp_drains[cursor], rlid, lid, rqpn, qpn,
                     Responder._read_opcode(index, chunks),  # noqa: SLF001
                     psn_add(wqe.first_psn, index),
                     chunk_sizes[cursor], None, False))
                cursor += 1
        rows: List[Tuple] = []
        i = j = 0
        while i < len(request_rows) and j < len(response_rows):
            if request_rows[i][0] <= response_rows[j][0]:
                rows.append(request_rows[i])
                i += 1
            else:
                rows.append(response_rows[j])
                j += 1
        rows.extend(request_rows[i:])
        rows.extend(response_rows[j:])
        return rows

    # ------------------------------------------------------------------
    # Fleet fast-forward: batched delivery of whole tick horizons
    # ------------------------------------------------------------------

    def maybe_fleet(self) -> None:
        """Absorb every provably-steady blind tick in the upcoming
        horizon, in exact firing order, as one batched-delivery sweep.

        Runs at the tail of a tick whose own round just replayed its
        memo (``_fleet_ready``).  The engine's ready-event batch for the
        horizon is walked in ``(time, seq)`` order — the exact order the
        run loop would fire it.  Each member tick is vetted with the
        same checks its own firing would perform (memo match, head
        still waiting, page-status pre-filter, span clearance, range
        readiness — via :meth:`_blind_fast` with the member's tick time)
        and, when they all hold, its round is applied through the
        fabric's closed-form bulk path, its timer retired, and its
        re-arm drawn and scheduled from here.

        Soundness rests on the quiet-window argument: between this tick
        and the first non-absorbed event, only absorbed member ticks and
        provably inert timers fire, so no foreign event is *created* in
        the window either — re-arms drawn at the batch instant take the
        very sequence numbers the real ticks would have drawn, RNG draws
        stay in real order (member order is firing order, and the stale
        count every period derives from is frozen), and every
        same-timestamp tie downstream resolves identically.  The first
        event that fails any check ends the sweep; everything from it on
        fires for real.  Observers force per-packet delivery through
        :meth:`Network.fleet_allowed` (chaos, taps, loss rules) and
        per-member gates (telemetry, ``requires_real`` via
        ``_peer``), matching the PR 3 fallback contract.
        """
        if not self._fleet_ready:
            return
        self._fleet_ready = False
        qp = self.qp
        rnic = qp.rnic
        if not rnic.coalesce or rnic.telemetry is not None:
            return
        network = rnic.network
        remote_lid = qp.remote_lid
        peer_rnic = network.devices.get(remote_lid)
        if peer_rnic is None or not peer_rnic.lazy_payloads \
                or not getattr(peer_rnic, "coalesce", False) \
                or not network.fleet_allowed(rnic.lid, remote_lid):
            return
        STATE_NORMAL, STATE_ODP_WAIT = _requester_states()
        sim = self.sim
        profile = rnic.profile
        base = max(profile.odp_client_retransmit_ns,
                   rnic.odp.stale_qp_count()
                   * profile.odp_retransmit_per_qp_ns)
        # One full blind period plus the jitter ceiling covers every
        # stale QP's pending tick — but a status-engine transition ends
        # any sweep (its completion resumes a page and the storm's
        # steady state with it), so cap the horizon just short of the
        # next one on either device: the walk then only covers events
        # with a chance of absorbing.
        horizon = sim.now + base + base // 8
        next_transition = rnic.odp.next_transition_at()
        if next_transition is not None and next_transition <= horizon:
            horizon = next_transition - 1
        next_transition = peer_rnic.odp.next_transition_at()
        if next_transition is not None and next_transition <= horizon:
            horizon = next_transition - 1
        if horizon <= sim.now:
            return
        # Pre-classify the horizon's ready batch: collect the blind
        # ticks, skip provably inert fault-raise timers (they stay
        # pending and fire later as no-ops; requester states are frozen
        # in the window, so the verdict here is the verdict at firing),
        # and let the first *hard* event cap absorption strictly before
        # its instant.  After this walk the window up to ``limit`` is
        # proven to hold nothing but the collected ticks, so each
        # member's span walk collapses to two integer comparisons (span
        # within the limit, next tick past the interact end).
        worklist: List[Tuple[int, int, object]] = []
        limit = horizon
        for event in sim.ready_batch(horizon):
            fn = event.fn
            name = getattr(fn, "__name__", None)
            if name == "_blind_retransmit":
                worklist.append((event.time, event.seq, event))
                continue
            if name == "_do_fault_raise":
                owner = getattr(fn, "__self__", None)
                if owner is not None and owner.state != STATE_NORMAL:
                    continue
            limit = event.time - 1
            break
        if not worklist:
            return
        odp = rnic.odp
        tgen_now = peer_rnic.translation.generation
        get_peer_qp = peer_rnic._qps.get  # noqa: SLF001
        get_peer_mr = peer_rnic._mrs_by_rkey.get  # noqa: SLF001
        qp_error = QpState.ERROR
        # The blind period's base derives from the stale-QP count, which
        # is frozen across the quiet window (absorbed rounds never touch
        # ``_stale_by_qpn``), so every member's re-arm draws against the
        # same base: hoist it, and inline the jitter's rejection loop
        # (the exact ``Simulator.jitter`` algorithm — one ``getrandbits``
        # per accepted draw, same stream positions as the real ticks).
        spread = int(base * 0.1)
        width = 2 * spread + 1
        jbits = width.bit_length()
        getrandbits = sim.rng.getrandbits
        range_ready = odp.requester_range_ready
        # ``Simulator.timer_at`` inlined for the re-arm loop: fresh
        # sequence number, wheel residency, live-event accounting — the
        # deadline is provably >= now, so the guard is also hoisted.
        wheel_insert = sim._wheel.insert  # noqa: SLF001
        now_i = sim.now
        up_a, down_b, up_b, down_a = self._storm_links(network, peer_rnic)
        sinks = network.synthetic_sinks(rnic.lid, remote_lid)
        # Tap sinks want per-round capture rows: route those sweeps
        # through the memo replay (it synthesises and feeds the rows);
        # otherwise batch — one template shape per sweep, per-member
        # effects applied inline, shared aggregates booked once at the
        # end through the fabric's bulk surfaces.
        batched = not sinks
        shape: Optional[Tuple] = None
        rbmax = 0
        n_batch = 0
        last_t = 0
        busy_floor = max(up_a._busy_until, down_b._busy_until,  # noqa: SLF001
                         up_b._busy_until, down_a._busy_until)  # noqa: SLF001
        absorbed = 0
        index = 0
        while index < len(worklist):
            t_i, _seq, event = worklist[index]
            index += 1
            # Worklist entries were collected (and re-arms created) by
            # ``_blind_retransmit`` name: always a bound requester method.
            req = event.fn.__self__
            if req.state != STATE_ODP_WAIT:
                # Inert, like the pending fault-raise timers: the tick's
                # first statement returns (states are frozen across the
                # window), touching no state, no link, and no RNG — its
                # real firing order is irrelevant, so leave it pending
                # and keep sweeping.
                continue
            member = req.qp
            mc = member.coalescer
            if (member.rnic is not rnic or member.remote_lid != remote_lid
                    or mc._joint_pending is not None):  # noqa: SLF001
                break
            c = mc._blind_cache  # noqa: SLF001
            if c is None or not mc._retransmit_matches(c.emit) \
                    or not c.emit[0].fault_wait_registered:
                break
            if batched:
                peer_qp = get_peer_qp(member.remote_qpn)
                if (peer_qp is None or peer_qp is not c.peer_qp
                        or peer_qp.state is qp_error):
                    break
                resp = peer_qp.responder
                if resp.epsn != c.epsn or c.tgen != tgen_now:
                    break
                stale_mr = False
                for rkey, rmr in c.mrs:
                    if get_peer_mr(rkey) is not rmr:
                        stale_mr = True
                        break
                if stale_mr:
                    break
                if shape is None:
                    shape = c.shape_key
                    rbmax = max(c.rel_busy)
                elif c.shape_key != shape:
                    break
                if t_i + c.rel_span > limit:
                    break
                if t_i < busy_floor:
                    break
                if index < len(worklist) \
                        and worklist[index][0] <= t_i + c.rel_interact:
                    break
                # Same query, same key, same order as the real discard
                # path (memoisation counters must advance identically);
                # a ready page ends the storm at this member's tick.
                if range_ready(member.qpn, c.head_mr,
                               c.head_addr, c.head_chunk):
                    break
                # Per-member effects, straight from the memo.
                for wqe in c.emit:
                    wqe.resp_received = 0
                req.retransmitted_packets += c.count
                req.responses_discarded_odp += 1
                req._progress_stamp += 1  # noqa: SLF001
                faulted = resp._faulted_psns  # noqa: SLF001
                if faulted:
                    for psn in c.psns:
                        faulted.discard(psn)
                resp.duplicates_serviced += c.count
                if c.rel_flaw_until is not None:
                    resp._flaw_drop_until = (  # noqa: SLF001
                        t_i + c.rel_flaw_until)
                mc.blind_rounds += 1
                busy_floor = t_i + rbmax
                last_t = t_i
                n_batch += 1
            else:
                peer = mc._peer()  # noqa: SLF001
                if peer is None:
                    break
                if mc._blind_fast(peer, c.emit, c, t=t_i,  # noqa: SLF001
                                  fleet_event=event) is not True:
                    break
            # Fully absorbed: retire the tick and replay the rest of its
            # body — round counter, period draw (the shared RNG stream
            # advances at its real position), wheel re-arm.  A re-arm
            # landing inside the limit joins the sweep at its firing
            # position, so one sweep can carry a QP through several
            # rounds.
            event.cancel()
            req.blind_retransmit_rounds += 1
            if spread > 0:
                r = getrandbits(jbits)
                while r >= width:
                    r = getrandbits(jbits)
                period = base - spread + r
                if period < 0:
                    period = 0
            else:
                period = base
            deadline = t_i + period
            sim._seq = seq = sim._seq + 1  # noqa: SLF001
            rearm = Event(deadline, seq, event.fn, ())
            sim._pending += 1  # noqa: SLF001
            wheel_insert(rearm, now_i)
            req._blind_timer = rearm  # noqa: SLF001
            if deadline <= limit:
                insort(worklist, (deadline, seq, rearm))
            absorbed += 1
        if n_batch:
            # Shared aggregates for the whole batch, booked once: NIC
            # and port counters, link occupancy to the final member's
            # busy horizon, switch forwards, packet serials, and the
            # engine's coalescing ledger.
            count, responses, req_bytes, resp_bytes = shape[:4]
            rel_busy = shape[6]
            total_req = count * n_batch
            total_resp = responses * n_batch
            total_req_bytes = req_bytes * n_batch
            total_resp_bytes = resp_bytes * n_batch
            client_stats = rnic.stats
            client_stats["tx_packets"] += total_req
            client_stats["tx_retransmissions"] += total_req
            client_stats["rx_packets"] += total_resp
            server_stats = peer_rnic.stats
            server_stats["rx_packets"] += total_req
            server_stats["tx_packets"] += total_resp
            network.bulk_book(rnic.lid, total_req, total_req_bytes,
                              total_resp, total_resp_bytes)
            network.bulk_book(peer_rnic.lid, total_resp, total_resp_bytes,
                              total_req, total_req_bytes)
            up_a.bulk_occupy(total_req, total_req_bytes,
                             last_t + rel_busy[0])
            down_b.bulk_occupy(total_req, total_req_bytes,
                               last_t + rel_busy[1])
            up_b.bulk_occupy(total_resp, total_resp_bytes,
                             last_t + rel_busy[2])
            down_a.bulk_occupy(total_resp, total_resp_bytes,
                               last_t + rel_busy[3])
            network.switch.bulk_forward(total_req + total_resp)
            advance_packet_serials(total_req + total_resp)
            sim.note_coalesced(shape[8] * n_batch, shape[4] * n_batch)
        self.fleet_rounds += absorbed

    # ------------------------------------------------------------------
    # Joint multi-QP blind rounds
    # ------------------------------------------------------------------

    @staticmethod
    def _ring_drain(enq, tx_ns: int):
        """Replay the NIC tx pipeline's round-robin drain discipline.

        ``enq`` is ``[(when, qpn, token), ...]`` in non-decreasing
        ``when`` order (same-instant entries belong to one qpn and keep
        their order, like back-to-back ``tx_enqueue`` calls).  Returns
        ``[(drain_time, token), ...]`` in drain order, mirroring
        ``Rnic._tx_drain`` exactly: one packet per ``tx_ns`` while the
        ring is non-empty, per-QP FIFO queues, a QP re-appended to the
        ring tail after each drain while its queue holds more.

        An enqueue can land at exactly a drain instant (back-to-back
        traffic paces enqueues at ``tx_ns`` too); which event fires
        first then depends on heap sequence numbers.  Almost always the
        order is provably irrelevant — the drain pops the ring head
        either way, and the resulting ring is identical unless the
        enqueue *newly* rings its QP while the drained head is
        re-appended behind it.  Only that genuinely ambiguous case
        returns None (the round declines rather than guesses).
        """
        queues: Dict[int, deque] = {}
        ring: deque = deque()
        out = []
        i = 0
        n = len(enq)
        next_drain = None
        while i < n or ring:
            if next_drain is None:
                # Pipeline idle: the next enqueue schedules the drain.
                next_drain = enq[i][0] + tx_ns
            while i < n and enq[i][0] <= next_drain:
                when, qpn, token = enq[i]
                queue = queues.get(qpn)
                if (when == next_drain and not queue
                        and len(queues[ring[0]]) > 1):
                    return None  # ring order would be seq-dependent
                i += 1
                if queue is None:
                    queue = queues[qpn] = deque()
                if not queue:
                    ring.append(qpn)
                queue.append(token)
            qpn = ring.popleft()
            queue = queues[qpn]
            token = queue.popleft()
            if queue:
                ring.append(qpn)
            out.append((next_drain, token))
            next_drain = next_drain + tx_ns if ring else None
        return out

    @staticmethod
    def _through_links(drains: List[int], wires: List[int], up, down,
                       forward_ns: int, rx_ns: int
                       ) -> Tuple[List[int], int, int]:
        """Dispatch times for already-drained packets crossing the
        fabric, plus the final busy values of both link directions (the
        link/switch/rx half of :meth:`_through_fabric`)."""
        dispatches: List[int] = []
        busy_up = up._busy_until  # noqa: SLF001 - closed-form replay
        busy_down = down._busy_until  # noqa: SLF001
        up_prop = up.propagation_ns
        down_prop = down.propagation_ns
        for drain, wire in zip(drains, wires):
            start = drain if drain > busy_up else busy_up
            busy_up = start + up.serialization_ns(wire)
            at_switch = busy_up + up_prop + forward_ns
            start = at_switch if at_switch > busy_down else busy_down
            busy_down = start + down.serialization_ns(wire)
            dispatches.append(busy_down + down_prop + rx_ns)
        return dispatches, busy_up, busy_down

    def _joint_member(self, req, tick: int, peer_rnic
                      ) -> Optional[_JointMember]:
        """Validate one stale QP as a joint-round participant and build
        its member record — the same per-QP storm checks as
        :meth:`_blind_slow`, evaluated now; span clearance guarantees
        they still hold when the member's tick actually fires."""
        from repro.ib.transport.requester import STATE_ODP_WAIT
        qp = req.qp
        rnic = self.qp.rnic
        if qp.rnic is not rnic or qp.remote_lid != self.qp.remote_lid:
            return None  # other fabric paths: no shared closed form
        if req.state != STATE_ODP_WAIT:
            return None
        coalescer = qp.coalescer
        if coalescer._joint_pending is not None:  # noqa: SLF001
            return None  # already pre-paid (defensive; cannot overlap)
        peer_qp = peer_rnic._qps.get(qp.remote_qpn)  # noqa: SLF001
        if peer_qp is None or peer_qp.state is QpState.ERROR:
            return None
        # Steady-state members replay their own memoised round: under
        # exactly the validity conditions of :meth:`_blind_fast` (same
        # peer, same WQE sequence, frozen ePSN, same translation
        # generation, same MR registrations, lazy payloads) every
        # per-WQE verdict below is unchanged since the memo was built,
        # so only the dynamic head checks need re-evaluating.
        c = coalescer._blind_cache  # noqa: SLF001
        if (c is not None and c.peer_qp is peer_qp
                and peer_rnic.lazy_payloads
                and coalescer._retransmit_matches(c.emit)  # noqa: SLF001
                and peer_qp.responder.epsn == c.epsn
                and peer_rnic.translation.generation == c.tgen
                and all(peer_rnic.mr_by_rkey(rkey) is rmr
                        for rkey, rmr in c.mrs)):
            if not c.emit[0].fault_wait_registered:
                return None
            # Same query, same key as the member's real discard path.
            if rnic.odp.requester_range_ready(qp.qpn, c.head_mr,
                                              c.head_addr, c.head_chunk):
                return None
            member = _JointMember()
            member.tick = tick
            member.req = req
            member.qp = qp
            member.peer_qp = peer_qp
            member.resp = peer_qp.responder
            member.emit = c.emit
            member.psns = c.psns
            member.count = c.count
            member.wqe_chunks = c.wqe_chunks
            member.responses = c.responses
            member.resp_bytes = c.resp_bytes
            member.last_req_disp = 0
            return member
        emit = coalescer._retransmit_set()  # noqa: SLF001
        if not emit:
            return None
        head = emit[0]
        if not head.fault_wait_registered:
            return None
        hw = head.wr
        mr = hw.local.mr if hw.local is not None else None
        if mr is None or not mr.mode.is_odp:
            return None
        mtu = rnic.profile.mtu
        # Same query, same key as the member's real discard path.
        if rnic.odp.requester_range_ready(qp.qpn, mr, hw.local.addr,
                                          min(mtu, hw.local.length)):
            return None
        resp = peer_qp.responder
        lazy = peer_rnic.lazy_payloads
        wqe_chunks: List[List[int]] = []
        for wqe in emit:
            wr = wqe.wr
            if psn_diff(wqe.first_psn, resp.epsn) >= 0:
                return None
            length = wr.local.length
            rmr = resp._validate(wr.remote.rkey, wr.remote.addr,  # noqa: SLF001
                                 length, Access.REMOTE_READ)
            if rmr is None:
                return None
            if rmr.mode.is_odp and not peer_rnic.odp.responder_range_ready(
                    rmr, wr.remote.addr, length):
                return None
            if not lazy:
                pages = rmr.vm._pages  # noqa: SLF001
                if any(page not in pages for page in
                       rmr.pages_of_range(wr.remote.addr, length)):
                    return None
            wqe_chunks.append([min(mtu, length - off)
                               for off in range(0, length, mtu)] or [0])
        member = _JointMember()
        member.tick = tick
        member.req = req
        member.qp = qp
        member.peer_qp = peer_qp
        member.resp = resp
        member.emit = emit
        member.psns = [wqe.first_psn for wqe in emit]
        member.count = len(emit)
        member.wqe_chunks = wqe_chunks
        member.responses = sum(len(sizes) for sizes in wqe_chunks)
        member.resp_bytes = sum(BASE_HEADER_BYTES + size
                                for sizes in wqe_chunks for size in sizes)
        member.last_req_disp = 0
        return member

    def _blind_joint(self, peer) -> bool:
        """Synthesise this round *together with* the other stale QPs
        whose blind ticks land inside its span.

        In real mode those ticks interleave their window replays with
        ours through the NICs' round-robin tx rings — a deterministic
        discipline :meth:`_ring_drain` replays exactly.  Every
        participant's per-QP effects are applied now; each foreign
        participant's timer is left armed with a pre-paid marker so its
        tick still fires, keeping its re-arm RNG draw at its real
        position in the shared stream.  Growing the member set can grow
        the span, so recruitment iterates to a fixed point; any event in
        the final span that is not a participant's tick (or a tolerated
        tail tick, as in :meth:`_span_clear`) declines the round.
        """
        network, peer_rnic, _peer_qp = peer
        qp = self.qp
        rnic = qp.rnic
        sim = self.sim
        t = sim.now
        mine = self._joint_member(qp.requester, t, peer_rnic)
        if mine is None:
            return self._decline("not_quiet")
        members = [mine]
        known = {qp.requester}
        up_a, down_b, up_b, down_a = self._storm_links(network, peer_rnic)
        forward_ns = network.switch.forward_ns
        while True:
            enq = []
            for member in members:
                enq.extend((member.tick, member.qp.qpn, (member, index))
                           for index in range(member.count))
            req_sched = self._ring_drain(enq, rnic.profile.tx_proc_ns)
            if req_sched is None:
                return self._decline("joint_tie")
            req_disp, up_a_busy, down_b_busy = self._through_links(
                [when for when, _token in req_sched],
                [_REQ_WIRE] * len(req_sched),
                up_a, down_b, forward_ns, peer_rnic.profile.rx_proc_ns)
            srv_enq = []
            for disp, (_when, (member, widx)) in zip(req_disp, req_sched):
                member.last_req_disp = disp  # dispatches are monotone
                srv_enq.extend((disp, member.peer_qp.qpn,
                                (member, widx, chunk))
                               for chunk in range(
                                   len(member.wqe_chunks[widx])))
            resp_sched = self._ring_drain(srv_enq,
                                          peer_rnic.profile.tx_proc_ns)
            if resp_sched is None:
                return self._decline("joint_tie")
            resp_wires = [BASE_HEADER_BYTES + member.wqe_chunks[widx][chunk]
                          for _when, (member, widx, chunk) in resp_sched]
            resp_disp, up_b_busy, down_a_busy = self._through_links(
                [when for when, _token in resp_sched], resp_wires,
                up_b, down_a, forward_ns, rnic.profile.rx_proc_ns)
            span_end = max(req_disp[-1], resp_disp[-1])
            interact_end = resp_sched[-1][0]
            next_transition = rnic.odp.next_transition_at()
            if next_transition is not None and next_transition <= interact_end:
                return self._decline("page_transition")
            if sim.quiet_until(span_end):
                break
            from repro.ib.transport.requester import STATE_NORMAL
            member_qpns = set()
            for member in members:
                member_qpns.add(member.qp.qpn)
                member_qpns.add(member.peer_qp.qpn)
            recruits = []
            for event in sim.live_events_until(span_end):
                fn = event.fn
                name = getattr(fn, "__name__", None)
                if name == "_do_fault_raise":
                    owner = getattr(fn, "__self__", None)
                    if owner is not None and owner.state != STATE_NORMAL:
                        continue  # provable no-op, as in _span_clear
                    return self._decline("not_quiet")
                if (name == "_complete"
                        and self._complete_tolerable(event, interact_end,
                                                     span_end, member_qpns)):
                    continue
                if name != "_blind_retransmit":
                    return self._decline("not_quiet")
                other = getattr(fn, "__self__", None)
                if other in known:
                    continue
                if event.time > interact_end:
                    continue  # tail-tolerated, as in _span_clear
                member = self._joint_member(other, event.time, peer_rnic)
                if member is None:
                    return self._decline("joint_member")
                recruits.append(member)
                known.add(other)
            if not recruits:
                break
            members.extend(recruits)
            members.sort(key=lambda member: member.tick)
            if len(members) > 16:
                return self._decline("joint_overflow")
            for earlier, later in zip(members, members[1:]):
                if earlier.tick == later.tick:
                    return self._decline("joint_tie")

        # Capture rows must merge before anything is applied: a
        # cross-pipeline timestamp tie makes the tap order heap-seq
        # dependent, which declines the round rather than guesses.
        rows = None
        sinks = network.synthetic_sinks(rnic.lid, qp.remote_lid)
        if sinks:
            rows = self._joint_rows(req_sched, resp_sched)
            if rows is None:
                return self._decline("joint_tie")

        # --- Apply every participant's round in one macro-event ---
        total_req = sum(member.count for member in members)
        total_resp = sum(member.responses for member in members)
        req_bytes = total_req * _REQ_WIRE
        resp_bytes = sum(member.resp_bytes for member in members)
        damming = peer_rnic.profile.damming_flaw
        window = peer_rnic.profile.damming_window_ns
        for member in members:
            for wqe in member.emit:
                wqe.resp_received = 0
            req = member.req
            req.retransmitted_packets += member.count
            req.responses_discarded_odp += 1
            req._progress_stamp += 1  # noqa: SLF001 - timer_only note
            resp = member.resp
            note_seen = resp._note_seen  # noqa: SLF001
            faulted = resp._faulted_psns  # noqa: SLF001
            for psn in member.psns:
                note_seen(psn)
                faulted.discard(psn)
            resp.duplicates_serviced += member.count
            if damming:
                resp._flaw_drop_until = (  # noqa: SLF001
                    member.last_req_disp + window)
        client_stats = rnic.stats
        client_stats["tx_packets"] += total_req
        client_stats["tx_retransmissions"] += total_req
        client_stats["rx_packets"] += total_resp
        server_stats = peer_rnic.stats
        server_stats["rx_packets"] += total_req
        server_stats["tx_packets"] += total_resp
        port_a = network.stats[rnic.lid]
        port_b = network.stats[peer_rnic.lid]
        port_a.tx_packets += total_req
        port_a.tx_bytes += req_bytes
        port_a.rx_packets += total_resp
        port_a.rx_bytes += resp_bytes
        port_b.tx_packets += total_resp
        port_b.tx_bytes += resp_bytes
        port_b.rx_packets += total_req
        port_b.rx_bytes += req_bytes
        up_a.bulk_occupy(total_req, req_bytes, up_a_busy)
        down_b.bulk_occupy(total_req, req_bytes, down_b_busy)
        up_b.bulk_occupy(total_resp, resp_bytes, up_b_busy)
        down_a.bulk_occupy(total_resp, resp_bytes, down_a_busy)
        network.switch.forwarded += total_req + total_resp
        advance_packet_serials(total_req + total_resp)
        if sinks:
            for sink in sinks:
                sink(rows)
        sim.note_coalesced(
            _EVENTS_PER_PACKET * (total_req + total_resp), span_end - t)
        self.blind_rounds += 1
        self.joint_rounds += 1
        for member in members:
            if member.req is qp.requester:
                continue
            member.qp.coalescer._joint_pending = member.tick  # noqa: SLF001
        return True

    def _joint_rows(self, req_sched, resp_sched) -> Optional[List[Tuple]]:
        """Tap rows for a joint round in injection order, or None on a
        cross-pipeline timestamp tie (order would be seq-dependent)."""
        lid = self.qp.rnic.lid
        rlid = self.qp.remote_lid
        request_rows = [
            (when, lid, rlid, member.qp.qpn, member.qp.remote_qpn,
             Opcode.RDMA_READ_REQUEST, member.psns[widx], 0, None, True)
            for when, (member, widx) in req_sched]
        response_rows = []
        for when, (member, widx, chunk) in resp_sched:
            chunks = len(member.wqe_chunks[widx])
            response_rows.append(
                (when, rlid, lid, member.qp.remote_qpn, member.qp.qpn,
                 Responder._read_opcode(chunk, chunks),  # noqa: SLF001
                 psn_add(member.psns[widx], chunk),
                 member.wqe_chunks[widx][chunk], None, False))
        rows: List[Tuple] = []
        i = j = 0
        while i < len(request_rows) and j < len(response_rows):
            if request_rows[i][0] == response_rows[j][0]:
                return None
            if request_rows[i][0] < response_rows[j][0]:
                rows.append(request_rows[i])
                i += 1
            else:
                rows.append(response_rows[j])
                j += 1
        rows.extend(request_rows[i:])
        rows.extend(response_rows[j:])
        return rows
