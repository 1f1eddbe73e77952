"""Enumerations of the verbs API (libibverbs-flavoured names)."""

from __future__ import annotations

import enum


class WcStatus(enum.Enum):
    """Work-completion status codes (``IBV_WC_*`` subset)."""

    SUCCESS = "IBV_WC_SUCCESS"
    RETRY_EXC_ERR = "IBV_WC_RETRY_EXC_ERR"
    RNR_RETRY_EXC_ERR = "IBV_WC_RNR_RETRY_EXC_ERR"
    REM_ACCESS_ERR = "IBV_WC_REM_ACCESS_ERR"
    REM_OP_ERR = "IBV_WC_REM_OP_ERR"
    WR_FLUSH_ERR = "IBV_WC_WR_FLUSH_ERR"
    LOC_PROT_ERR = "IBV_WC_LOC_PROT_ERR"

    @property
    def is_error(self) -> bool:
        """True for anything but SUCCESS."""
        return self is not WcStatus.SUCCESS


class WcOpcode(enum.Enum):
    """Operation type recorded in a work completion."""

    SEND = "SEND"
    RDMA_WRITE = "RDMA_WRITE"
    RDMA_READ = "RDMA_READ"
    COMP_SWAP = "COMP_SWAP"
    FETCH_ADD = "FETCH_ADD"
    RECV = "RECV"


class QpState(enum.Enum):
    """Queue pair states (the subset the model transitions through)."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"   # ready to receive
    RTS = "RTS"   # ready to send
    ERROR = "ERROR"


class Access(enum.Flag):
    """Memory region access flags."""

    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_ATOMIC = enum.auto()

    @classmethod
    def all(cls) -> "Access":
        """Every access flag (the common benchmark setting)."""
        return _ALL_ACCESS


# Built once: each ``Flag.__or__`` is a Python-level call.
_ALL_ACCESS = (Access.LOCAL_WRITE | Access.REMOTE_READ
               | Access.REMOTE_WRITE | Access.REMOTE_ATOMIC)

#: Convenience alias used across examples.
Access.ALL = _ALL_ACCESS  # type: ignore[attr-defined]


class OdpMode(enum.Enum):
    """How a memory region is backed (Section III: Explicit/Implicit)."""

    PINNED = "PINNED"            # classic pinned registration
    EXPLICIT = "ODP_EXPLICIT"    # ODP for this region
    IMPLICIT = "ODP_IMPLICIT"    # ODP for the whole address space

    def __init__(self, value: str) -> None:
        #: True for either ODP flavour.  A plain member attribute, not
        #: a property: the transport reads it on every packet.
        self.is_odp = value != "PINNED"
