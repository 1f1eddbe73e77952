"""A compute node: address space, kernel, driver, and one RNIC."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.host.driver import Driver
from repro.host.kernel import Kernel
from repro.host.memory import Region, VirtualMemory
from repro.ib.rnic import Rnic
from repro.sim.engine import Simulator
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.device import DeviceProfile
    from repro.ib.verbs.context import Context
    from repro.net.network import Network


class Node:
    """One host with a single RNIC port."""

    def __init__(self, sim: Simulator, name: str, lid: int,
                 profile: "DeviceProfile", network: "Network"):
        self.sim = sim
        self.name = name
        self.lid = lid
        self.vm = VirtualMemory(lambda: sim.now, name=f"{name}.vm")
        self.kernel = Kernel(sim, name=f"{name}.kernel")
        self.driver = Driver(sim, name=f"{name}.mlx5_0")
        self.rnic = Rnic(sim, profile, lid, self.driver, network)

    def release(self) -> None:
        """Cut the back-references of the node's RNIC and address space
        (end of run; see :meth:`repro.host.cluster.Cluster.release`)."""
        self.rnic.release()
        self.vm.release()

    def open_device(self) -> "Context":
        """``ibv_open_device`` for this node's RNIC."""
        from repro.ib.verbs.context import Context  # local import: cycle

        return Context(self.rnic)

    def mmap(self, size: int, populate: bool = False) -> Region:
        """Allocate anonymous memory in this node's address space."""
        return self.vm.mmap(size, populate=populate)

    def spawn(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a simulation process bound to this node."""
        return Process(self.sim, gen, name=name or f"{self.name}.proc")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} lid={self.lid}>"
