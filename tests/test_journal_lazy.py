"""A driver without a journal builds no journal record.

The embedded driver (``qemu:///system`` in-process) has no state
directory, so nothing it journals is ever written.  Journal records are
built by a builder the ``_journal_write`` funnel calls only once a
journal is attached; on this path no mutation may pretty-print a config
document.  Readers still format: ``xml_desc()`` and ``snapshot_create``
(which stores the domain XML in the snapshot) serve a caller.
"""

import pytest

import repro
from repro.drivers import nodes
from repro.xmlconfig import DomainConfig, NetworkConfig, StoragePoolConfig, VolumeConfig
from repro.xmlconfig.network import DHCPRange, IPConfig

GiB = 1024**3
FORMATTED = (DomainConfig, NetworkConfig, StoragePoolConfig, VolumeConfig)


@pytest.fixture()
def formats(monkeypatch):
    """Count every ``to_xml`` call on the four config classes."""
    counts = {cls.__name__: 0 for cls in FORMATTED}
    for cls in FORMATTED:
        original = cls.to_xml

        def counted(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "to_xml", counted)
    return counts


@pytest.fixture()
def conn():
    nodes.reset_nodes()
    conn = repro.open_connection("qemu:///system")
    yield conn
    conn.close()
    nodes.reset_nodes()


# documents are formatted before the counter is installed: what is
# counted is the driver's own formatting only
DOMAIN_XML = DomainConfig(
    "lazy-vm", domain_type="kvm", memory_kib=1024 * 1024, vcpus=1
).to_xml()
NETWORK_XML = NetworkConfig(
    "lazy-net",
    ip=IPConfig("192.168.160.1", "255.255.255.0", DHCPRange("192.168.160.10", "192.168.160.20")),
).to_xml()
POOL_XML = StoragePoolConfig("lazy-pool", capacity_bytes=10 * GiB).to_xml()
VOLUME_XML = VolumeConfig("lazy.qcow2", capacity_bytes=GiB).to_xml()


def test_journal_less_mutations_format_no_xml(conn, formats):
    domain = conn.define_domain(DOMAIN_XML)
    domain.start()
    domain.suspend()
    domain.resume()
    domain.set_memory(512 * 1024)
    domain.info()
    domain.destroy()
    domain.undefine()

    network = conn.define_network(NETWORK_XML)
    network.start()
    network.destroy()
    network.undefine()

    pool = conn.define_storage_pool(POOL_XML)
    pool.start()
    volume = pool.create_volume(VOLUME_XML)
    volume.delete()

    assert formats == {cls.__name__: 0 for cls in FORMATTED}


def test_readers_still_format(conn, formats):
    domain = conn.define_domain(DOMAIN_XML)
    assert formats["DomainConfig"] == 0
    assert "<name>lazy-vm</name>" in domain.xml_desc()
    assert formats["DomainConfig"] == 1
    domain.create_snapshot("s1")
    # the snapshot keeps the config it was taken from
    assert formats["DomainConfig"] == 2
    domain.delete_snapshot("s1")
    domain.undefine()
    assert formats["DomainConfig"] == 2
