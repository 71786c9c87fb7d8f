"""Self time, patching and the cross-thread span carry of the ledger."""

import threading

from ledger import Recorder, Span, public_methods, self_times


def span(layer, parent, start, end):
    s = Span(layer, f"{layer}.call", parent, "loop")
    s.start, s.end = start, end
    return s


def test_self_time_of_nested_children():
    root = span("core", None, 0, 100)
    child = span("drivers.remote", root, 10, 40)
    grandchild = span("rpc.protocol", child, 20, 30)
    selfs = self_times([grandchild, child, root])
    assert selfs[id(root)] == 70
    assert selfs[id(child)] == 20
    assert selfs[id(grandchild)] == 10


def test_overlapping_children_count_once():
    root = span("core", None, 0, 100)
    first = span("rpc.transport", root, 10, 50)
    second = span("util.threadpool", root, 30, 70)
    selfs = self_times([first, second, root])
    assert selfs[id(root)] == 40
    assert selfs[id(first)] == 40 and selfs[id(second)] == 40


def test_cross_thread_child_outliving_its_parent():
    # the client-side dispatch returns at 30; the worker job it submitted
    # runs 40..90 while the root waits for the reply
    root = span("core", None, 0, 100)
    dispatch = span("rpc.server", root, 10, 30)
    job = span("daemon.libvirtd", dispatch, 40, 90)
    selfs = self_times([dispatch, job, root])
    assert selfs[id(dispatch)] == 20
    assert selfs[id(job)] == 50
    assert selfs[id(root)] == 30
    assert sum(selfs.values()) == root.duration


def test_child_reaching_past_the_root_is_clipped():
    root = span("core", None, 0, 100)
    job = span("daemon.libvirtd", root, 80, 130)
    selfs = self_times([root, job])
    assert selfs[id(root)] == 80
    assert selfs[id(job)] == 50


class Target:
    def plain(self, x):
        return x + 1

    @staticmethod
    def static(x):
        return x * 2

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)

    @property
    def prop(self):
        return 1

    def _private(self):
        return 0


class Child(Target):
    pass


def test_public_methods_skip_properties_and_private_names():
    assert public_methods(Target) == ["klass", "plain", "static"]


def test_patch_records_spans_and_restore_puts_originals_back():
    originals = dict(vars(Target))
    rec = Recorder()
    rec.patch_layer("core", Target, public_methods(Target))
    rec.patch_layer("core", Child, ["plain"])  # inherited: patched on Child only
    assert Child().plain(1) == 2 and Target.static(3) == 6 and Target.klass(4) == ("Target", 4)
    assert [s.name for s in rec.spans] == ["Target.plain", "Child.plain", "Target.static", "Target.klass"]
    child_span, parent_span = rec.spans[0], rec.spans[1]
    assert child_span.parent is parent_span and child_span.root is parent_span
    rec.restore()
    assert "plain" not in vars(Child)
    for name, raw in originals.items():
        assert vars(Target)[name] is raw


def test_submit_carries_the_caller_across_the_thread_handoff():
    class Pool:
        def submit(self, func, *args):
            thread = threading.Thread(target=func, args=args)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()

    rec = Recorder()
    rec.patch(Pool, "submit", rec.carried_submit)
    worker = rec.timed("drivers.stateful", "work", lambda: None)
    caller = rec.timed("rpc.server", "dispatch", lambda: Pool().submit(worker))
    op = rec.timed("core", "op", caller)
    op()
    rec.restore()
    by_name = {s.name: s for s in rec.spans}
    dispatch, wait, job = by_name["dispatch"], by_name["WorkerPool.wait"], by_name["WorkerPool.job"]
    assert wait.parent is dispatch and job.parent is dispatch
    assert by_name["work"].parent is job
    assert {s.root for s in rec.spans} == {by_name["op"]}
    assert wait.end == job.start


def test_installing_every_entry_point_and_restoring_leaves_the_program_untouched():
    from repro.rpc import protocol
    from repro.util.threadpool import WorkerPool

    from ledger import install_entry_points

    before = (dict(vars(protocol)), dict(vars(protocol.RPCMessage)), dict(vars(WorkerPool)))
    rec = Recorder()
    install_entry_points(rec)
    assert vars(protocol)["encode_value"] is not before[0]["encode_value"]
    rec.restore()
    after = (dict(vars(protocol)), dict(vars(protocol.RPCMessage)), dict(vars(WorkerPool)))
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)
