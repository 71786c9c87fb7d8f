"""The durable state layer: StateDir atomicity and the WAL journal.

The journal is the daemon's crash-safety anchor: every driver mutation
appends a checksummed record before the call is acknowledged, and a
restarted daemon rebuilds its view from snapshot + tail replay.  These
tests exercise the layer in isolation — torn tails, checkpoints,
last-writer-wins folding — before the crash tests drive it through a
full daemon.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.errors import InvalidArgumentError
from repro.faults import CrashHarness
from repro.state import StateDir, StateJournal
from repro.state.journal import APPEND_COST_S, REPLAY_COST_S
from repro.util.clock import VirtualClock


@pytest.fixture()
def statedir(tmp_path):
    statedir = StateDir(str(tmp_path / "state"))
    yield statedir
    statedir.close()


@pytest.fixture()
def journal(statedir):
    return StateJournal(statedir)


class TestStateDir:
    def test_creates_root(self, tmp_path):
        root = tmp_path / "a" / "b"
        StateDir(str(root))
        assert root.is_dir()

    def test_rejects_bad_names(self, statedir):
        for bad in ("", ".hidden", f"up{os.sep}escape"):
            with pytest.raises(InvalidArgumentError):
                statedir.path(bad)

    def test_write_atomic_replaces_whole_file(self, statedir):
        statedir.write_atomic("f", b"old bytes")
        statedir.write_atomic("f", b"new")
        assert statedir.read_bytes("f") == b"new"
        # no temp litter survives the rename
        assert statedir.list() == ["f"]

    def test_read_missing_returns_none(self, statedir):
        assert statedir.read_bytes("ghost") is None
        assert statedir.size("ghost") == 0
        assert not statedir.exists("ghost")

    def test_append_and_truncate(self, statedir):
        statedir.append("log", b"aaaa")
        statedir.append("log", b"bbbb")
        assert statedir.read_bytes("log") == b"aaaabbbb"
        statedir.truncate("log", 4)
        assert statedir.read_bytes("log") == b"aaaa"

    def test_remove_is_idempotent(self, statedir):
        statedir.write_atomic("f", b"x")
        statedir.remove("f")
        statedir.remove("f")
        assert not statedir.exists("f")


class TestStateDirAppendHandles:
    """``append`` keeps one handle per file open between calls."""

    def test_append_after_write_atomic_lands_in_new_file(self, statedir):
        statedir.append("log", b"old-")
        statedir.write_atomic("log", b"new-")
        statedir.append("log", b"tail")
        assert statedir.read_bytes("log") == b"new-tail"

    def test_append_after_truncate_lands_in_new_file(self, statedir):
        statedir.append("log", b"aaaa")
        statedir.truncate("log", 0)
        statedir.append("log", b"bb")
        assert statedir.read_bytes("log") == b"bb"

    def test_append_after_remove_recreates_the_file(self, statedir):
        statedir.append("log", b"gone")
        statedir.remove("log")
        assert not statedir.exists("log")
        statedir.append("log", b"back")
        assert statedir.read_bytes("log") == b"back"

    def test_appended_bytes_visible_without_close(self, statedir):
        for chunk in (b"one\n", b"two\n"):
            statedir.append("log", chunk)
        # nothing buffered in the process: another reader sees every byte
        assert statedir.read_bytes("log") == b"one\ntwo\n"
        assert statedir.size("log") == 8

    def test_short_writes_are_retried(self, statedir):
        statedir.append("log", b"")  # opens the handle
        real = statedir._handles["log"]

        class Trickle:
            def write(self, data):
                return real.write(bytes(data[:3]))

            def close(self):
                real.close()

        statedir._handles["log"] = Trickle()
        statedir.append("log", b"0123456789")
        assert statedir.read_bytes("log") == b"0123456789"

    def test_appends_survive_kill_9(self, tmp_path):
        root = str(tmp_path / "killed")
        child = textwrap.dedent(
            f"""
            import os, signal
            from repro.state import StateDir
            statedir = StateDir({root!r})
            statedir.append("log", b"first\\n")
            statedir.append("log", b"second\\n")
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", child], env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL
        assert StateDir(root).read_bytes("log") == b"first\nsecond\n"

    def test_close_is_idempotent_and_append_reopens(self, statedir):
        statedir.append("a", b"1")
        statedir.append("b", b"2")
        statedir.close()
        statedir.close()
        statedir.append("a", b"3")
        assert statedir.read_bytes("a") == b"13"
        assert statedir.read_bytes("b") == b"2"

    def test_journal_torn_tail_recovery_unchanged(self, statedir):
        first = StateJournal(statedir)
        first.put("domain", "vm1", {"id": 1})
        first.append_torn("domain", "vm2", {"id": 2})
        # recovery truncates the torn tail under the still-open handle;
        # the next append must extend the clean log, not the old offset
        second = StateJournal(statedir)
        assert second.torn_tail_discarded
        assert second.get("domain", "vm2") is None
        second.put("domain", "vm3", {"id": 3})
        fresh = StateDir(statedir.root)
        third = StateJournal(fresh)
        assert not third.torn_tail_discarded
        assert set(third.entries("domain")) == {"vm1", "vm3"}
        fresh.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_crash_restart_cycles_leak_no_fds(self, tmp_path):
        from repro.xmlconfig.domain import DomainConfig

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        harness = CrashHarness(str(tmp_path / "fds"), hostname="fdcycle")
        before = open_fds()
        harness.start()
        for cycle in range(50):
            # a define journals and leaves a flight-recorder line, so
            # both state directories hold an append handle at the crash
            harness.driver().domain_define_xml(
                DomainConfig(
                    name=f"vm{cycle}", domain_type="kvm", memory_kib=1024, vcpus=1
                ).to_xml()
            )
            harness.daemon.crash()
            harness.restart()
        harness.shutdown()
        assert open_fds() == before


class TestJournalBasics:
    def test_put_get_roundtrip(self, journal):
        journal.put("domain", "vm1", {"xml": "<domain/>", "id": 1})
        assert journal.get("domain", "vm1") == {"xml": "<domain/>", "id": 1}
        assert journal.lsn == 1

    def test_none_data_rejected(self, journal):
        with pytest.raises(InvalidArgumentError):
            journal.put("domain", "vm1", None)

    def test_last_writer_wins(self, journal):
        journal.put("domain", "vm1", {"id": 1})
        journal.put("domain", "vm1", {"id": 2})
        assert journal.get("domain", "vm1") == {"id": 2}
        assert len(journal) == 1

    def test_delete_tombstones(self, journal):
        journal.put("domain", "vm1", {"id": 1})
        journal.delete("domain", "vm1")
        assert journal.get("domain", "vm1") is None
        assert len(journal) == 0

    def test_entries_filters_by_kind(self, journal):
        journal.put("domain", "vm1", {"id": 1})
        journal.put("network", "default", {"active": True})
        assert set(journal.entries("domain")) == {"vm1"}
        assert set(journal.entries("network")) == {"default"}


class TestJournalRecovery:
    def test_replay_restores_folded_state(self, statedir):
        first = StateJournal(statedir)
        first.put("domain", "vm1", {"id": 1})
        first.put("domain", "vm2", {"id": 2})
        first.put("domain", "vm1", {"id": 7})
        first.delete("domain", "vm2")

        second = StateJournal(statedir)
        assert second.get("domain", "vm1") == {"id": 7}
        assert second.get("domain", "vm2") is None
        assert second.replayed_records == 4
        assert second.lsn == first.lsn
        assert not second.torn_tail_discarded

    def test_torn_tail_detected_and_discarded(self, statedir):
        first = StateJournal(statedir)
        first.put("domain", "vm1", {"id": 1})
        torn_bytes = first.append_torn("domain", "vm2", {"id": 2})
        assert torn_bytes < statedir.size(StateJournal.JOURNAL_FILE)
        # the torn write never updated the in-memory view
        assert first.get("domain", "vm2") is None

        second = StateJournal(statedir)
        assert second.torn_tail_discarded
        assert second.get("domain", "vm1") == {"id": 1}
        assert second.get("domain", "vm2") is None
        assert second.replayed_records == 1

    def test_torn_tail_truncated_so_journal_reusable(self, statedir):
        first = StateJournal(statedir)
        first.put("domain", "vm1", {"id": 1})
        first.append_torn("domain", "vm2", {"id": 2})

        second = StateJournal(statedir)
        # the torn suffix is physically gone; new appends extend a clean log
        second.put("domain", "vm3", {"id": 3})
        third = StateJournal(statedir)
        assert not third.torn_tail_discarded
        assert set(third.entries("domain")) == {"vm1", "vm3"}

    def test_torn_tombstone_is_also_discarded(self, statedir):
        first = StateJournal(statedir)
        first.put("domain", "vm1", {"id": 1})
        first.append_torn("domain", "vm1", None)

        second = StateJournal(statedir)
        assert second.torn_tail_discarded
        assert second.get("domain", "vm1") == {"id": 1}

    def test_corrupt_middle_stops_replay_at_last_good_record(self, statedir):
        first = StateJournal(statedir)
        first.put("domain", "vm1", {"id": 1})
        first.put("domain", "vm2", {"id": 2})
        # flip a byte inside the last record's payload: CRC catches it
        raw = bytearray(statedir.read_bytes(StateJournal.JOURNAL_FILE))
        raw[-3] ^= 0xFF
        with open(statedir.path(StateJournal.JOURNAL_FILE), "wb") as handle:
            handle.write(bytes(raw))

        second = StateJournal(statedir)
        assert second.torn_tail_discarded
        assert second.get("domain", "vm1") == {"id": 1}
        assert second.get("domain", "vm2") is None


class TestCheckpoint:
    def test_checkpoint_truncates_journal(self, statedir):
        journal = StateJournal(statedir)
        for i in range(5):
            journal.put("domain", f"vm{i}", {"id": i})
        assert statedir.size(StateJournal.JOURNAL_FILE) > 0
        journal.checkpoint()
        assert statedir.size(StateJournal.JOURNAL_FILE) == 0
        assert journal.tail_records == 0
        assert journal.snapshot_lsn == journal.lsn

    def test_recovery_from_snapshot_plus_tail(self, statedir):
        journal = StateJournal(statedir)
        for i in range(5):
            journal.put("domain", f"vm{i}", {"id": i})
        journal.checkpoint()
        journal.put("domain", "vm5", {"id": 5})
        journal.delete("domain", "vm0")

        recovered = StateJournal(statedir)
        assert recovered.replayed_records == 2  # only the tail, not history
        assert set(recovered.entries("domain")) == {f"vm{i}" for i in range(1, 6)}
        assert recovered.lsn == journal.lsn

    def test_auto_checkpoint_bounds_the_tail(self, statedir):
        journal = StateJournal(statedir, checkpoint_every=10)
        for i in range(35):
            journal.put("domain", f"vm{i % 4}", {"seq": i})
        assert journal.tail_records < 10
        recovered = StateJournal(statedir)
        assert recovered.replayed_records < 10
        assert recovered.entries("domain") == journal.entries("domain")

    def test_recovery_cost_sublinear_after_checkpoint(self, statedir):
        """The acceptance criterion: snapshot + tail replay beats full
        replay, measured in modelled I/O time on the virtual clock."""
        flat = StateDir(statedir.root + "-flat")
        full = StateJournal(flat, checkpoint_every=10**9)
        snapped = StateJournal(statedir, checkpoint_every=10**9)
        for i in range(400):
            full.put("domain", f"vm{i % 20}", {"seq": i})
            snapped.put("domain", f"vm{i % 20}", {"seq": i})
        snapped.checkpoint()

        clock_full, clock_snap = VirtualClock(), VirtualClock()
        t0 = clock_full.now()
        StateJournal(flat, clock=clock_full)
        full_cost = clock_full.now() - t0
        t0 = clock_snap.now()
        StateJournal(statedir, clock=clock_snap)
        snap_cost = clock_snap.now() - t0
        assert snap_cost < full_cost
        # full replay pays per-record; the snapshot path pays a fixed
        # load plus a far cheaper per-entry cost
        assert full_cost >= 400 * REPLAY_COST_S
        flat.close()

    def test_modelled_costs_only_with_clock(self, statedir):
        clock = VirtualClock()
        journal = StateJournal(statedir, clock=clock)
        t0 = clock.now()
        journal.put("domain", "vm1", {"id": 1})
        assert clock.now() - t0 == pytest.approx(APPEND_COST_S)
        # a clockless journal never advances anybody's time
        silent = StateJournal(StateDir(statedir.root + "-s"))
        silent.put("domain", "vm1", {"id": 1})
        silent.statedir.close()
