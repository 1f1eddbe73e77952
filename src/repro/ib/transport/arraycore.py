"""Array-native hot core: vectorized per-QP transport state.

At fabric scale (1k-16k QPs) the flood experiments spend much of their
wall-clock in the object-model cost of *having that many QPs*: each
blind-retransmit tick walks QP/requester/responder attribute chains and
re-arms a timer object for a round that is identical across the whole
stale fleet.  Real RNICs do not box per-QP state: PSN/window/timer state
lives in dense per-QP context tables that the pipeline reads as arrays
(the IRN line of work models hardware the same way, and NP-RDMA's
page-presence bitmaps are the ODP analogue).

:class:`ArrayCore` is that table for this simulator: one preallocated
numpy structured array per RNIC holding every QP's transport state —
expected/next PSN, MSN, retry counters, timer deadlines, the RNR budget,
the page-readiness generation and the requester state.  The
requester/responder/ODP-coordinator objects stay the behavioural source
of truth on the per-packet slow path and write through to their row at
each mutation point; the storm coalescer's fleet sweeps read and write
the deadline columns in bulk, and the fast-forward timeline math
(:func:`cascade_times`) becomes closed-form `numpy` recurrences over
whole delivery batches.

The status engine's congestion load is *not* a table reduction: the
coordinator's object walk stops at the backlog cap
(``OdpCoordinator.retransmit_load``), which bounds it per service
without a mirrored column.

The object model remains the *observer view*: :meth:`ArrayCore.view`
materializes a per-QP dict lazily from the row (nothing is computed for
QPs nobody looks at), and :meth:`ArrayCore.verify_row` cross-checks a
row against the live objects — the contract the bit-identity tests
enforce.

Exactness contract
------------------

Every value here must be *exactly* what the object path holds — the
arrays are int64/int32, all arithmetic is integral, and the
write-through points mirror the object mutations one for one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.verbs.qp import QueuePair

#: Requester state codes (see ``repro.ib.transport.requester``).
STATE_CODES = {"normal": 0, "rnr_wait": 1, "odp_wait": 2}

#: "No deadline armed" sentinel for the timer columns.
NO_DEADLINE = -1

#: One row per QP.  int64 everywhere a simulated timestamp or PSN can
#: land; the narrow columns are bounded by the IB spec (3-bit retry
#: fields).
QP_DTYPE = np.dtype([
    ("qpn", np.int64),
    ("expected_psn", np.int64),    # responder ePSN
    ("next_psn", np.int64),        # requester next PSN to assign
    ("msn", np.int64),             # responder message sequence number
    ("retry_used", np.int32),      # transport retries consumed
    ("rnr_retries_used", np.int32),
    ("rnr_budget", np.int32),      # remaining RNR retries (7 = infinite)
    ("timer_deadline", np.int64),  # transport ACK timer expiry
    ("blind_deadline", np.int64),  # next blind-retransmit tick
    ("page_gen", np.int64),        # page-readiness generation stamp
    ("state", np.int8),            # requester state code
])


class ArrayCore:
    """Per-RNIC dense QP state table."""

    def __init__(self, capacity: int = 256):
        self.slot_of: Dict[int, int] = {}
        self._n = 0
        self._table = np.zeros(max(1, capacity), dtype=QP_DTYPE)
        self._rebind()

    # ------------------------------------------------------------------
    # Registration / lifecycle
    # ------------------------------------------------------------------

    def _rebind(self) -> None:
        """Refresh the cached per-column views (after (re)allocation).

        A structured-array field access builds a fresh view object every
        time; the write-through sites run per packet, so the bound
        column arrays are cached here — ``ArrayCore`` owns the table, so
        growth (the only thing that invalidates a view) rebinds them.
        """
        self._cols: Dict[str, np.ndarray] = {
            name: self._table[name] for name in QP_DTYPE.names}

    def __len__(self) -> int:
        return self._n

    def register(self, qp: "QueuePair") -> int:
        """Assign (or return) the row of ``qp``; syncs the full row."""
        slot = self.slot_of.get(qp.qpn)
        if slot is None:
            if self._n == len(self._table):
                grown = np.zeros(len(self._table) * 2, dtype=QP_DTYPE)
                grown[:self._n] = self._table
                self._table = grown
                self._rebind()
            slot = self._n
            self._n += 1
            self.slot_of[qp.qpn] = slot
        self.sync_row(qp, slot)
        return slot

    def sync_row(self, qp: "QueuePair", slot: Optional[int] = None) -> None:
        """Write every column of ``qp``'s row from the object model —
        the transition-point resync used at registration, (re)connect
        and reset (the hot paths write single fields through instead)."""
        if slot is None:
            slot = self.slot_of[qp.qpn]
        req = qp.requester
        resp = qp.responder
        cols = self._cols
        cols["qpn"][slot] = qp.qpn
        cols["expected_psn"][slot] = resp.epsn
        cols["next_psn"][slot] = req.next_psn
        cols["msn"][slot] = resp.msn
        cols["retry_used"][slot] = req.retry_used
        cols["rnr_retries_used"][slot] = req.rnr_retries_used
        cols["rnr_budget"][slot] = qp.attrs.rnr_retry - (
            req.rnr_retries_used if qp.attrs.rnr_retry != 7 else 0)
        cols["timer_deadline"][slot] = NO_DEADLINE
        cols["blind_deadline"][slot] = NO_DEADLINE
        cols["state"][slot] = STATE_CODES[req.state]

    def sync_hot(self, qp: "QueuePair") -> None:
        """Write-through of every field a packet-handler chain can move.

        Called once per dispatched packet (and from the requester's
        timer/post paths via ``_ac_sync``); the deadline and page
        columns are written at their own arm/transition sites, which
        are the only places the values are known.
        """
        req = qp.requester
        resp = qp.responder
        slot = qp.ac_slot
        cols = self._cols
        cols["expected_psn"][slot] = resp.epsn
        cols["next_psn"][slot] = req.next_psn
        cols["msn"][slot] = resp.msn
        retry_used = req.retry_used
        cols["retry_used"][slot] = retry_used
        rnr_used = req.rnr_retries_used
        cols["rnr_retries_used"][slot] = rnr_used
        rnr_retry = qp.attrs.rnr_retry
        cols["rnr_budget"][slot] = rnr_retry - (
            rnr_used if rnr_retry != 7 else 0)
        cols["state"][slot] = STATE_CODES[req.state]

    # Column accessors: the write-through sites index these directly
    # (``ac.col("page_gen")[slot] = n`` — one dict hit against the
    # cached views; ``_rebind`` keeps them valid across growth).

    def col(self, name: str) -> np.ndarray:
        """The named column (full capacity; index by slot)."""
        return self._cols[name]

    # ------------------------------------------------------------------
    # Observer view (lazy materialization of the object-model shape)
    # ------------------------------------------------------------------

    def view(self, qpn: int) -> Dict[str, Any]:
        """Materialize one QP's row as a plain dict, on demand.

        Observers (tests, diagnosis tooling) read per-QP state through
        this instead of holding the array: nothing is built for rows
        nobody asks about, mirroring the PayloadRef pattern of keeping
        the cheap dense form authoritative and boxing lazily.
        """
        row = self._table[self.slot_of[qpn]]
        out = {name: row[name].item() for name in QP_DTYPE.names}
        out["state"] = {v: k for k, v in STATE_CODES.items()}[out["state"]]
        return out

    def verify_row(self, qp: "QueuePair") -> List[str]:
        """Mismatches between ``qp``'s row and the live objects (empty
        when the write-through contract held)."""
        got = self.view(qp.qpn)
        req, resp = qp.requester, qp.responder
        expect = {
            "qpn": qp.qpn,
            "expected_psn": resp.epsn,
            "next_psn": req.next_psn,
            "msn": resp.msn,
            "retry_used": req.retry_used,
            "rnr_retries_used": req.rnr_retries_used,
            "state": req.state,
        }
        return [f"{name}: table {got[name]!r} != object {value!r}"
                for name, value in expect.items() if got[name] != value]


# ----------------------------------------------------------------------
# Vectorized delivery-batch timeline
# ----------------------------------------------------------------------

def cascade_times(enq: Sequence[int], wires: Sequence[int], tx_ns: int,
                  up, down, forward_ns: int, rx_ns: int
                  ) -> Tuple[List[int], List[int], int, int]:
    """Closed-form drain/dispatch times for a batch of packets crossing
    one NIC tx pipeline, an uplink, the switch, and a downlink.

    Vectorized equivalent of the storm coalescer's ``_through_fabric``
    scan: the three serial-resource recurrences (tx drain pacing, uplink
    serialisation, downlink serialisation) are each of the form
    ``b[i] = max(arrival[i], b[i-1]) + cost[i]``, which prefix sums turn
    into ``b = cumsum(cost) + running_max(arrival - exclusive_cumsum)``
    — one :func:`numpy.maximum.accumulate` per resource instead of a
    Python loop over the batch.  All arithmetic is int64, so the results
    are bit-identical to the scalar scan (a test proves it).
    """
    n = len(enq)
    arrivals = np.asarray(enq, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    drains = tx_ns * (idx + 1) + np.maximum.accumulate(
        arrivals - tx_ns * idx)

    ser_up = np.array([up.serialization_ns(w) for w in wires],
                      dtype=np.int64)
    cum_up = np.cumsum(ser_up)
    busy_up = cum_up + np.maximum.accumulate(
        np.maximum(drains - cum_up + ser_up, up._busy_until))  # noqa: SLF001

    at_switch = busy_up + up.propagation_ns + forward_ns
    ser_down = np.array([down.serialization_ns(w) for w in wires],
                        dtype=np.int64)
    cum_down = np.cumsum(ser_down)
    busy_down = cum_down + np.maximum.accumulate(
        np.maximum(at_switch - cum_down + ser_down,
                   down._busy_until))  # noqa: SLF001
    dispatches = busy_down + down.propagation_ns + rx_ns
    return (drains.tolist(), dispatches.tolist(),
            int(busy_up[-1]), int(busy_down[-1]))
