"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.dot11.mac import MacAddress
from repro.hosts.host import Host
from repro.hosts.nic import WiredInterface
from repro.netstack.ethernet import Hub, LanSegment, Switch
from repro.sim.kernel import Simulator

# Exploration stays randomized, but a falsified property prints the
# @reproduce_failure blob that replays it.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1234)


def make_wired_host(sim: Simulator, segment: LanSegment, name: str, ip: str,
                    *, netmask: str = "255.255.255.0",
                    promiscuous: bool = False) -> Host:
    """A host with one wired interface on ``segment``."""
    host = Host(sim, name)
    mac = MacAddress.random(sim.rng.substream(f"mac.{name}"))
    iface = WiredInterface("eth0", mac, promiscuous=promiscuous)
    iface.attach_segment(segment)
    host.add_interface(iface)
    iface.configure_ip(ip, netmask)
    return host


@pytest.fixture
def wired_pair(sim):
    """Two hosts on one switch: (sim, host_a, host_b)."""
    lan = Switch(sim, "lan")
    a = make_wired_host(sim, lan, "alpha", "10.0.0.1")
    b = make_wired_host(sim, lan, "beta", "10.0.0.2")
    return sim, a, b


@pytest.fixture
def hub_trio(sim):
    """Three hosts on a hub (the sniffable wired case)."""
    lan = Hub(sim, "hub")
    a = make_wired_host(sim, lan, "alpha", "10.0.0.1")
    b = make_wired_host(sim, lan, "beta", "10.0.0.2")
    c = make_wired_host(sim, lan, "eve", "10.0.0.3", promiscuous=True)
    return sim, a, b, c
