"""Pluggable ODP-pitfall countermeasures (the "fix" side of the paper).

The paper diagnoses packet damming and packet flood but never ships a
remedy; the related work does.  Each strategy here is a frozen config
object describing one countermeasure family:

* ``none`` — the baseline.  Resolves to ``None`` on the device so every
  hot path stays a single ``is None`` check and the run is bit-identical
  to a build without the mitigation layer at all.
* ``selective-retransmit`` — IRN-style loss recovery ("Revisiting
  Network Support for RDMA"): re-emit only operations with no
  acknowledged progress under a BDP-bounded in-flight window instead of
  the go-back-N full-window replay, eager per-arrival sequence NAKs,
  and the conservative exponential Local ACK Timeout collapsed to a
  short ``RTO_low`` — selective repeat makes spurious retransmits
  cheap, so damming stalls resolve in microseconds, not a full
  ``C_ACK`` detection timeout.
* ``dynamic-pin`` — NP-RDMA-style page-presence speculation: pages that
  draw repeated ODP fault feedback get device-pinned (resident, immune
  to reclaim, exempt from per-QP status updates) under a bounded pin
  budget with LRU release back to plain ODP — graceful degradation,
  never a hard failure.
* ``prefetch-advise`` — ``ibv_advise_mr``-style warm-up: translations
  (and, on the stateful client side, per-QP status views) are resolved
  for a window of pages ahead of the access cursor, with a first-touch
  prewarm of the initial window before the timed phase, as the
  fig12/tab13 application stages would after a prior warm stage.

Strategies declare fast-path compatibility.  An incompatible combination
*declines* to the scalar path with a tallied reason (coalescer
``decline_reasons["mitigation"]``, result ``mitigation_fallbacks``) —
it never silently changes what the run measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.timebase import US


@dataclass(frozen=True)
class MitigationStrategy:
    """Frozen description of one countermeasure.

    A strategy object carries knobs for every family; a concrete
    registry entry enables one family's knobs and leaves the rest at
    their inert defaults.  The same object is shared by the whole
    device (or installed per QP via ``QueuePair.mitigation``), so it
    must stay immutable.
    """

    name: str
    description: str
    #: fast-path compatibility: incompatible strategies make the storm
    #: coalescer decline every round with a tallied ``"mitigation"``
    #: reason (no memo is built, so no fleet sweep engages either).
    coalesce_compatible: bool = True
    # --- selective-retransmit (IRN) knobs ---
    #: replace go-back-N with selective repeat at WQE granularity.
    selective: bool = False
    #: BDP-bounded in-flight window (0 = keep ``max_rd_atomic``).
    bdp_packets: int = 0
    #: short retransmission timeout (0 = profile detection timeout).
    rto_low_ns: int = 0
    #: NAK every out-of-sequence arrival instead of one outstanding
    #: sequence NAK per gap (IRN's per-packet loss feedback).
    eager_seq_nak: bool = False
    # --- dynamic-pin (NP-RDMA) knobs ---
    #: pin pages that draw repeated ODP fault feedback.
    pin_pages: bool = False
    #: max pages pinned at once; LRU release back to ODP beyond it.
    pin_budget_pages: int = 0
    #: fault feedbacks on a page before it is speculated hot and pinned.
    pin_fault_threshold: int = 1
    # --- prefetch-advise knobs ---
    #: pages kept resolved ahead of the benchmark's access cursor
    #: (0 disables the prefetch machinery entirely).
    advise_ahead_pages: int = 0
    #: prewarm the initial window before the timed phase begins.
    prewarm_first_touch: bool = False


#: Registry of selectable strategies, keyed by CLI/config name.
STRATEGIES: Dict[str, MitigationStrategy] = {
    strategy.name: strategy
    for strategy in (
        MitigationStrategy(
            name="none",
            description="baseline: no countermeasure, bit-identical to "
                        "a build without the mitigation layer",
        ),
        MitigationStrategy(
            name="selective-retransmit",
            description="IRN-style selective repeat: BDP-bounded window, "
                        "RTO_low instead of the C_ACK detection timeout, "
                        "eager sequence NAKs",
            # The coalescer's closed forms (fleet sweeps included)
            # replay the go-back-N burst shape.
            coalesce_compatible=False,
            selective=True,
            bdp_packets=4,
            rto_low_ns=320 * US,
            eager_seq_nak=True,
        ),
        MitigationStrategy(
            name="dynamic-pin",
            description="NP-RDMA-style page-presence speculation: pin "
                        "fault-hot pages under a budget, LRU release "
                        "back to ODP",
            pin_pages=True,
            pin_budget_pages=256,
            pin_fault_threshold=1,
        ),
        MitigationStrategy(
            name="prefetch-advise",
            description="ibv_advise_mr-style warm-up: pre-fault ranges "
                        "ahead of the access cursor, first-touch "
                        "prewarming of the initial window",
            advise_ahead_pages=4,
            prewarm_first_touch=True,
        ),
    )
}


def get_strategy(name: str) -> MitigationStrategy:
    """Look up a registry strategy; raises with the choices on a typo."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown mitigation strategy {name!r}; "
            f"choices: {', '.join(sorted(STRATEGIES))}") from None


def resolve_strategy(name: str) -> Optional[MitigationStrategy]:
    """Registry lookup with ``"none"`` collapsed to ``None``.

    Devices install the resolved value: ``None`` keeps every hot path a
    single ``is None`` check, which is the whole bit-identity story for
    the baseline.
    """
    strategy = get_strategy(name)
    return None if strategy.name == "none" else strategy
