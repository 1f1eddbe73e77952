"""Tests for host memory, kernel paging, and driver invalidation."""

import pytest

from repro.host.cluster import Cluster, TABLE2_HOSTS, build_pair
from repro.host.kernel import Kernel
from repro.host.memory import MemoryError_, PAGE_SIZE, VirtualMemory
from repro.sim.engine import Simulator


class TestVirtualMemory:
    def make_vm(self):
        sim = Simulator()
        return sim, VirtualMemory(lambda: sim.now)

    def test_mmap_alignment(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(100)
        assert region.base % PAGE_SIZE == 0

    def test_lazy_residency(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(8 * PAGE_SIZE)
        assert vm.resident_pages() == 0
        region.write(0, b"x")
        assert vm.resident_pages() == 1
        region.write(3 * PAGE_SIZE, b"y")
        assert vm.resident_pages() == 2

    def test_populate_touches_all_pages(self):
        _sim, vm = self.make_vm()
        vm.mmap(4 * PAGE_SIZE, populate=True)
        assert vm.resident_pages() == 4

    def test_unmapped_access_rejected(self):
        _sim, vm = self.make_vm()
        with pytest.raises(MemoryError_):
            vm.read(0xDEAD_BEEF_000, 8)

    def test_eviction_preserves_data_via_swap(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(PAGE_SIZE)
        region.write(100, b"persistent")
        page = region.pages()[0]
        assert vm.evict(page)
        assert not vm.is_resident(page)
        assert region.read(100, 10) == b"persistent"  # swap-in restore
        assert vm.is_resident(page)

    def test_pinned_page_cannot_be_evicted(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(PAGE_SIZE)
        vm.pin_range(region.base, PAGE_SIZE)
        assert not vm.evict(region.pages()[0])
        vm.unpin_range(region.base, PAGE_SIZE)
        assert vm.evict(region.pages()[0])

    def test_unpin_without_pin_rejected(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(PAGE_SIZE, populate=True)
        with pytest.raises(MemoryError_):
            vm.unpin_range(region.base, PAGE_SIZE)

    def test_invalidation_hooks_fire_on_evict(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(PAGE_SIZE, populate=True)
        evicted = []
        vm.add_invalidation_hook(evicted.append)
        vm.evict(region.pages()[0])
        assert evicted == [region.pages()[0]]

    def test_sub_region_views(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(1024)
        sub = region.sub(100, 200)
        sub.write(0, b"hello")
        assert region.read(100, 5) == b"hello"
        with pytest.raises(MemoryError_):
            region.sub(1000, 100)

    def test_region_bounds_checks(self):
        _sim, vm = self.make_vm()
        region = vm.mmap(64)
        with pytest.raises(MemoryError_):
            region.write(60, b"too long")
        with pytest.raises(MemoryError_):
            region.read(60, 8)


    def test_is_mapped_edges_gaps_and_tail(self):
        _sim, vm = self.make_vm()
        first = vm.mmap(100)
        second = vm.mmap(2 * PAGE_SIZE)
        # ``second`` starts at the next page boundary: a 3996-byte gap.
        assert second.base == first.base + PAGE_SIZE
        assert vm.is_mapped(first.base, 100)
        assert vm.is_mapped(first.base + 99)
        assert not vm.is_mapped(first.base - 1)
        assert not vm.is_mapped(first.base + 99, 2)
        assert not vm.is_mapped(first.end)
        assert not vm.is_mapped(second.base - 1)
        assert not vm.is_mapped(first.base + 50, PAGE_SIZE)
        assert vm.is_mapped(second.base, 2 * PAGE_SIZE)
        assert not vm.is_mapped(second.base, 2 * PAGE_SIZE + 1)
        assert not vm.is_mapped(second.end)
        assert not vm.is_mapped(second.end + 10 * PAGE_SIZE)

    def test_is_mapped_agrees_with_a_scan_of_every_mapping(self):
        _sim, vm = self.make_vm()
        assert not vm.is_mapped(VirtualMemory.BASE)
        regions = [vm.mmap(size, align=align) for size, align in (
            (100, PAGE_SIZE), (PAGE_SIZE, PAGE_SIZE), (10, 64),
            (3 * PAGE_SIZE, 2 * PAGE_SIZE), (1, 1), (7, 1))]

        def scan(addr, size):
            return any(r.base <= addr and addr + size <= r.end
                       for r in regions)

        addrs = set(range(regions[0].base - 8, regions[-1].end + 8, 7))
        for r in regions:
            addrs.update((r.base - 1, r.base, r.end - 1, r.end))
        for addr in sorted(addrs):
            for size in (1, 8, 100, PAGE_SIZE):
                assert vm.is_mapped(addr, size) == scan(addr, size), \
                    (hex(addr), size)


class TestKernel:
    def test_make_present_costs_time(self):
        sim = Simulator()
        vm = VirtualMemory(lambda: sim.now)
        kernel = Kernel(sim)
        region = vm.mmap(PAGE_SIZE)
        done = kernel.make_present(vm, region.pages()[0])
        assert not done.done
        sim.run_until_idle()
        assert done.done
        assert vm.is_resident(region.pages()[0])
        assert sim.now > 0

    def test_swap_in_costs_more_than_fresh_allocation(self):
        sim = Simulator()
        vm = VirtualMemory(lambda: sim.now)
        kernel = Kernel(sim)
        region = vm.mmap(2 * PAGE_SIZE)
        region.write(0, b"data")
        vm.evict(region.pages()[0])

        t0 = sim.now
        kernel.make_present(vm, region.pages()[0])  # swapped
        sim.run_until_idle()
        swap_cost = sim.now - t0
        t1 = sim.now
        kernel.make_present(vm, region.pages()[1])  # fresh
        sim.run_until_idle()
        fresh_cost = sim.now - t1
        assert swap_cost > fresh_cost

    def test_reclaim_respects_pins_and_lru(self):
        sim = Simulator()
        vm = VirtualMemory(lambda: sim.now)
        kernel = Kernel(sim)
        region = vm.mmap(4 * PAGE_SIZE, populate=True)
        vm.pin_range(region.base, PAGE_SIZE)  # pin the first page
        evicted = kernel.reclaim(vm, target_pages=10)
        assert evicted == 3
        assert vm.is_resident(region.pages()[0])


class TestCluster:
    def test_build_pair_wires_two_nodes(self):
        cluster = build_pair()
        assert len(cluster.nodes) == 2
        assert cluster.nodes[0].lid != cluster.nodes[1].lid
        assert cluster.network.lids() == [1, 2]

    def test_for_system_uses_table1_device(self):
        cluster = Cluster.for_system("Azure VM HCr Series")
        assert cluster.profile.model == "ConnectX-5"

    def test_table2_presets_match_paper(self):
        by_name = {h.name: h for h in TABLE2_HOSTS}
        assert by_name["KNL (Private servers B)"].logical_cores == 272
        assert by_name["Reedbush-H"].logical_cores == 36
        assert by_name["ABCI"].memory_gb == 384

    def test_add_node_extends_fabric(self):
        cluster = build_pair()
        node = cluster.add_node("extra")
        assert node.lid == 3
        assert cluster.network.switch.knows(3)
