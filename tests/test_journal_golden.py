"""Golden journal bytes: what a journaled driver writes, pinned exactly.

A stateful driver with a journal attached writes one record per
mutation, in call order, and offers the seeded ``MID_JOURNAL`` kill
point once per record.  How the driver builds those records is free to
change (lazily, through a builder the funnel calls); what reaches disk
is not.  This test runs one fixed mutation sequence on a ``VirtualClock``
and pins the sha256 of ``journal.bin`` (the full record stream, before
the checkpoint), of ``snapshot.json`` after ``flush_state()``, and the
crash-opportunity census, so any change to record bytes, record order
or crash-point order shows up here.
"""

import hashlib

import pytest

from repro.drivers.qemu import QemuDriver
from repro.faults import CrashPlan, CrashPoint
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.state import StateDir, StateJournal
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig, InterfaceDevice
from repro.xmlconfig.network import DHCPRange, IPConfig, NetworkConfig
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

GiB = 1024**3

JOURNAL_SHA256 = "0e22b7ae594646f28446d4a84526813dada49917bc1ca10082001524851f4647"
SNAPSHOT_SHA256 = "ac5c2d57720351dd9628dda1bfea1d444e08ee7a0c52b1de0ab9088f404bd32b"
RECOVERED_SNAPSHOT_SHA256 = "3daccd440bd5395e4ae9dfff747c30e10b8bdfea8ec646cfcfbeed3b6bbf35b2"

#: every MID_JOURNAL opportunity, in order, for the sequence below
CENSUS = [
    "network:golden-net",  # define
    "network:golden-net",  # start
    "pool:golden-pool",  # define
    "pool:golden-pool",  # start
    "pool:golden-pool",  # volume disk0 created
    "pool:golden-pool",  # volume disk1 created
    "domain:golden-vm",  # define
    "network:golden-net",  # start hands out a DHCP lease
    "domain:golden-vm",  # start
    "domain:golden-vm",  # set_memory
    "domain:golden-vm",  # snapshot
    "network:golden-net",  # destroy releases the lease
    "domain:golden-vm",  # destroy
    "pool:golden-pool",  # volume disk1 deleted
    "domain:golden-vm",  # snapshot deleted
    "domain:golden-vm",  # undefine (tombstone)
]


def run_sequence(driver):
    """The fixed mutation sequence whose journal is pinned."""
    driver.network_define_xml(
        NetworkConfig(
            "golden-net",
            uuid="6b1f0c6e-6a53-4f07-9d0e-3f4f1f8a0c11",
            ip=IPConfig(
                "192.168.150.1",
                "255.255.255.0",
                DHCPRange("192.168.150.10", "192.168.150.20"),
            ),
        ).to_xml()
    )
    driver.network_create("golden-net")
    driver.storage_pool_define_xml(
        StoragePoolConfig(
            "golden-pool",
            uuid="0c9a4bd4-6de8-4c8e-9a0e-2b1d1a7f5e22",
            capacity_bytes=50 * GiB,
        ).to_xml()
    )
    driver.storage_pool_create("golden-pool")
    driver.storage_vol_create_xml(
        "golden-pool", VolumeConfig("disk0.qcow2", capacity_bytes=2 * GiB).to_xml()
    )
    driver.storage_vol_create_xml(
        "golden-pool", VolumeConfig("disk1.raw", GiB, volume_format="raw").to_xml()
    )
    driver.domain_define_xml(
        DomainConfig(
            "golden-vm",
            domain_type="kvm",
            uuid="3e2d7c5a-1f4b-4d6e-8a9c-7b5e4d3c2a33",
            memory_kib=1024 * 1024,
            vcpus=2,
            interfaces=[InterfaceDevice("network", "golden-net", mac="52:54:00:aa:bb:01")],
        ).to_xml()
    )
    driver.domain_create("golden-vm")
    driver.domain_set_memory("golden-vm", 768 * 1024)
    driver.snapshot_create("golden-vm", "snap1")
    driver.domain_destroy("golden-vm")
    driver.storage_vol_delete("golden-pool", "disk1.raw")
    driver.snapshot_delete("golden-vm", "snap1")
    driver.domain_undefine("golden-vm")


def _journaled_driver(backend, statedir):
    driver = QemuDriver(backend)
    driver.attach_state(StateJournal(statedir, clock=backend.clock))
    driver.crash_plan = CrashPlan(seed=0)
    return driver


@pytest.fixture()
def journaled(tmp_path):
    backend = QemuBackend(host=SimHost(hostname="golden", clock=VirtualClock()))
    statedir = StateDir(str(tmp_path / "state"))
    yield _journaled_driver(backend, statedir), statedir
    statedir.close()


def _sha256(statedir, name):
    return hashlib.sha256(statedir.read_bytes(name) or b"").hexdigest()


def test_journal_and_snapshot_bytes_are_pinned(journaled):
    driver, statedir = journaled
    run_sequence(driver)
    assert _sha256(statedir, StateJournal.JOURNAL_FILE) == JOURNAL_SHA256
    driver.flush_state()
    assert _sha256(statedir, StateJournal.SNAPSHOT_FILE) == SNAPSHOT_SHA256
    # the checkpoint folded every record into the snapshot
    assert statedir.size(StateJournal.JOURNAL_FILE) == 0


def test_crash_opportunity_census_is_pinned(journaled):
    driver, _ = journaled
    run_sequence(driver)
    assert [point for point, _ in driver.crash_plan.opportunities] == [
        CrashPoint.MID_JOURNAL
    ] * len(CENSUS)
    assert [op for _, op in driver.crash_plan.opportunities] == CENSUS


def test_recovery_rewrite_is_pinned(journaled):
    # a restarted driver folds the journal, rewrites every surviving
    # record (the tombstoned domain stays gone) and checkpoints again
    driver, statedir = journaled
    run_sequence(driver)
    driver.flush_state()
    restarted = _journaled_driver(driver.backend, statedir)
    stats = restarted.recover_state()
    assert stats["domains"] == 0 and stats["adopted"] == 0
    assert [op for _, op in restarted.crash_plan.opportunities] == [
        "network:golden-net",
        "pool:golden-pool",
    ]
    assert _sha256(statedir, StateJournal.SNAPSHOT_FILE) == RECOVERED_SNAPSHOT_SHA256
