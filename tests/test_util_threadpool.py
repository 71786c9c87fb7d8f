"""Tests for the workerpool (repro.util.threadpool)."""

import random
import sys
import threading
import time
from concurrent.futures import wait as wait_futures

import pytest

from repro.errors import InvalidArgumentError, InvalidOperationError, OperationAbortedError
from repro.util.threadpool import WorkerPool


def wait_for(predicate, timeout=5.0, interval=0.005):
    """Poll until predicate() is true or the timeout expires."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestConstruction:
    def test_initial_stats(self):
        with WorkerPool(min_workers=2, max_workers=8, prio_workers=3) as pool:
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 2)
            stats = pool.stats()
            assert stats["minWorkers"] == 2
            assert stats["maxWorkers"] == 8
            assert stats["nWorkers"] == 2
            assert stats["prioWorkers"] == 3
            assert stats["jobQueueDepth"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_workers": -1},
            {"max_workers": 0},
            {"min_workers": 5, "max_workers": 2},
            {"prio_workers": -1},
            {"min_workers": "two"},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            WorkerPool(**kwargs)


class TestExecution:
    def test_job_runs_and_returns_result(self):
        with WorkerPool(min_workers=1, max_workers=2) as pool:
            future = pool.submit(lambda a, b: a + b, 2, 3)
            assert future.result(timeout=5) == 5

    def test_kwargs_forwarded(self):
        with WorkerPool() as pool:
            future = pool.submit(lambda x=0: x * 2, x=21)
            assert future.result(timeout=5) == 42

    def test_exception_propagates_through_future(self):
        with WorkerPool() as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(timeout=5)

    def test_many_jobs_all_complete(self):
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            futures = [pool.submit(lambda i=i: i * i) for i in range(100)]
            assert sorted(f.result(timeout=10) for f in futures) == sorted(
                i * i for i in range(100)
            )
            assert pool.jobs_completed == 100

    def test_job_is_counted_before_its_future_resolves(self):
        """A done-callback runs on the worker at delivery; by then the
        job must already be in ``jobs_completed``."""
        with WorkerPool(min_workers=1, max_workers=1) as pool:
            gate = threading.Event()
            seen = []
            future = pool.submit(gate.wait, 5)
            future.add_done_callback(lambda _: seen.append(pool.jobs_completed))
            gate.set()
            assert future.result(timeout=5) is True
            assert seen == [1]

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool()
        pool.shutdown()
        with pytest.raises(InvalidOperationError):
            pool.submit(lambda: None)


class TestDynamicGrowth:
    def test_pool_grows_under_load_up_to_max(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=3) as pool:
            futures = [pool.submit(gate.wait) for _ in range(5)]
            assert wait_for(lambda: pool.stats()["nWorkers"] == 3)
            assert pool.stats()["nWorkers"] == 3  # capped at max
            gate.set()
            for f in futures:
                f.result(timeout=5)

    def test_queue_depth_reports_waiting_jobs(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1) as pool:
            futures = [pool.submit(gate.wait) for _ in range(4)]
            assert wait_for(lambda: pool.stats()["jobQueueDepth"] == 3)
            gate.set()
            for f in futures:
                f.result(timeout=5)

    def test_free_workers_counts_idle(self):
        with WorkerPool(min_workers=3, max_workers=3) as pool:
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 3)
            gate = threading.Event()
            f = pool.submit(gate.wait)
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 2)
            gate.set()
            f.result(timeout=5)
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 3)


class TestPriorityLane:
    def test_priority_workers_execute_priority_jobs(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=2) as pool:
            blockers = [pool.submit(gate.wait)]  # occupy the ordinary worker
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 0)
            done = pool.submit(lambda: "critical", priority=True)
            # the priority lane finishes the critical job while ordinary is stuck
            assert done.result(timeout=5) == "critical"
            gate.set()
            for f in blockers:
                f.result(timeout=5)

    def test_priority_workers_ignore_ordinary_jobs(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=2) as pool:
            blocker = pool.submit(gate.wait)  # ordinary worker busy
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 0)
            queued = pool.submit(lambda: "ordinary")
            # priority workers are idle but must not pick the ordinary job up
            time.sleep(0.1)
            assert not queued.done()
            gate.set()
            assert queued.result(timeout=5) == "ordinary"
            blocker.result(timeout=5)

    def test_ordinary_worker_can_take_priority_job(self):
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=0) as pool:
            future = pool.submit(lambda: "prio", priority=True)
            assert future.result(timeout=5) == "prio"


class TestWakeups:
    """``submit`` signals one worker per lane (``virThreadPoolSendJob``)."""

    @staticmethod
    def _count_waits(pool):
        """Route both lanes' ``wait`` through counters.  ``wait`` runs
        with the pool lock held on entry and exit, so the counters are
        only ever touched under that lock."""
        counts = {"waiting": 0, "woken": 0}
        for cond in (pool._cond, pool._prio_cond):
            def counted(timeout=None, _real=cond.wait):
                counts["waiting"] += 1
                try:
                    return _real(timeout)
                finally:
                    counts["waiting"] -= 1
                    counts["woken"] += 1

            cond.wait = counted
        return counts

    def test_one_submit_wakes_exactly_one_waiter(self):
        with WorkerPool(min_workers=5, max_workers=5, prio_workers=5) as pool:
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 5)
            counts = self._count_waits(pool)
            # a broadcast sends every worker back into the counted wait
            pool.set_parameters()
            assert wait_for(lambda: counts["waiting"] == 10)
            with pool._lock:
                counts["woken"] = 0
            assert pool.submit(lambda: "done").result(timeout=5) == "done"
            assert wait_for(lambda: counts["waiting"] == 10)
            time.sleep(0.05)  # room for any stray wakeup to show up
            with pool._lock:
                assert counts["woken"] == 1

    def test_priority_job_runs_while_every_ordinary_worker_is_blocked(self):
        gate = threading.Event()
        with WorkerPool(min_workers=5, max_workers=5, prio_workers=5) as pool:
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 5)
            blockers = [pool.submit(gate.wait) for _ in range(7)]
            assert wait_for(
                lambda: pool.stats()["freeWorkers"] == 0
                and pool.stats()["jobQueueDepth"] == 2
            )
            critical = pool.submit(lambda: threading.current_thread().name, priority=True)
            assert "prio-worker" in critical.result(timeout=5)
            assert not any(f.done() for f in blockers)
            gate.set()
            for f in blockers:
                f.result(timeout=5)

    def test_job_queued_while_max_is_lowered_still_runs(self):
        """Lost-wakeup regression: the worker a submit signals may wake
        only to quit as surplus; the job must still find a worker."""
        rng = random.Random(12)
        for _ in range(40):
            with WorkerPool(min_workers=4, max_workers=4, prio_workers=1) as pool:
                assert wait_for(lambda: pool.stats()["freeWorkers"] == 4)
                futures = []
                for step in rng.sample(["a", "b", "lower"], 3):
                    if step == "lower":
                        pool.set_parameters(min_workers=1, max_workers=1)
                    else:
                        futures.append(pool.submit(lambda s=step: s))
                assert sorted(f.result(timeout=5) for f in futures) == ["a", "b"]
                assert wait_for(lambda: pool.stats()["nWorkers"] == 1)


@pytest.mark.stress
class TestSubmitSoak:
    def test_mixed_lane_submitters_finish_every_future(self):
        with WorkerPool(min_workers=1, max_workers=4, prio_workers=2) as pool:
            futures = []
            lock = threading.Lock()

            def submitter(seed):
                rng = random.Random(seed)
                mine = []
                for index in range(500):
                    mine.append(pool.submit(
                        lambda i=index: i, priority=rng.random() < 0.3
                    ))
                    if rng.random() < 0.01:
                        time.sleep(0.001)
                with lock:
                    futures.extend(mine)

            def resizer():
                for max_workers in (2, 4, 1, 3, 4):
                    pool.set_parameters(min_workers=1, max_workers=max_workers)
                    time.sleep(0.01)

            threads = [threading.Thread(target=submitter, args=(seed,)) for seed in range(4)]
            threads.append(threading.Thread(target=resizer))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # force fine-grained interleaving
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(futures) == 2000
            _, not_done = wait_futures(futures, timeout=30)
            assert not not_done
            assert pool.jobs_completed == 2000


class TestRuntimeReconfiguration:
    def test_raising_min_spawns_workers(self):
        with WorkerPool(min_workers=1, max_workers=10) as pool:
            pool.set_parameters(min_workers=5)
            assert wait_for(lambda: pool.stats()["nWorkers"] >= 5)

    def test_lowering_max_terminates_surplus_idle_workers(self):
        with WorkerPool(min_workers=4, max_workers=4) as pool:
            assert wait_for(lambda: pool.stats()["nWorkers"] == 4)
            pool.set_parameters(min_workers=1, max_workers=1)
            assert wait_for(lambda: pool.stats()["nWorkers"] == 1)

    def test_lowering_max_takes_effect_after_busy_workers_finish(self):
        gate = threading.Event()
        with WorkerPool(min_workers=3, max_workers=3) as pool:
            futures = [pool.submit(gate.wait) for _ in range(3)]
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 0)
            pool.set_parameters(min_workers=1, max_workers=1)
            assert pool.stats()["nWorkers"] == 3  # still busy, not killed mid-job
            gate.set()
            for f in futures:
                f.result(timeout=5)
            assert wait_for(lambda: pool.stats()["nWorkers"] == 1)

    def test_prio_worker_count_adjustable(self):
        with WorkerPool(prio_workers=1) as pool:
            pool.set_parameters(prio_workers=3)
            assert wait_for(lambda: pool.stats()["prioWorkers"] == 3)
            pool.set_parameters(prio_workers=0)
            assert wait_for(lambda: pool.stats()["prioWorkers"] == 0)

    def test_invalid_runtime_limits_rejected(self):
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            with pytest.raises(InvalidArgumentError):
                pool.set_parameters(min_workers=10)  # above current max
            with pytest.raises(InvalidArgumentError):
                pool.set_parameters(max_workers=0)
            # pool still functional
            assert pool.submit(lambda: 1).result(timeout=5) == 1

    def test_set_parameters_after_shutdown_rejected(self):
        pool = WorkerPool()
        pool.shutdown()
        with pytest.raises(InvalidOperationError):
            pool.set_parameters(max_workers=2)


class TestShutdown:
    def test_graceful_shutdown_drains_queue(self):
        pool = WorkerPool(min_workers=1, max_workers=1)
        results = []
        futures = [pool.submit(lambda i=i: results.append(i)) for i in range(10)]
        pool.shutdown(wait=True)
        for f in futures:
            f.result(timeout=1)
        assert sorted(results) == list(range(10))
        assert pool.stats()["nWorkers"] == 0

    def test_abrupt_shutdown_cancels_pending(self):
        gate = threading.Event()
        pool = WorkerPool(min_workers=1, max_workers=1)
        running = pool.submit(gate.wait)
        pending = pool.submit(lambda: "never")
        assert wait_for(lambda: pool.stats()["jobQueueDepth"] == 1)
        gate.set()
        pool.shutdown(wait=False)
        with pytest.raises(OperationAbortedError):
            pending.result(timeout=5)
        running.result(timeout=5)

    def test_double_shutdown_is_idempotent(self):
        pool = WorkerPool()
        pool.shutdown()
        pool.shutdown()


class TestCancelledFutures:
    def test_cancelled_queued_job_does_not_run_or_kill_worker(self):
        """Regression: a Future cancelled while queued used to raise
        InvalidStateError inside the worker loop, silently killing the
        thread and leaking its _n_workers slot."""
        gate = threading.Event()
        ran = []
        with WorkerPool(min_workers=1, max_workers=1) as pool:
            blocker = pool.submit(gate.wait)
            doomed = pool.submit(lambda: ran.append("doomed"))
            assert doomed.cancel()
            gate.set()
            blocker.result(timeout=5)
            assert wait_for(lambda: pool.jobs_cancelled == 1)
            # the worker survived: it still executes new jobs and the
            # pool's accounting never leaked the slot
            assert pool.submit(lambda: "alive").result(timeout=5) == "alive"
            assert pool.stats()["nWorkers"] == 1
            assert ran == []

    def test_abrupt_shutdown_tolerates_cancelled_pending_futures(self):
        """shutdown(wait=False) delivers failures into queued futures;
        one already cancelled by the caller must not blow up delivery."""
        gate = threading.Event()
        pool = WorkerPool(min_workers=1, max_workers=1)
        running = pool.submit(gate.wait)
        pending = pool.submit(lambda: "never")
        assert wait_for(lambda: pool.stats()["jobQueueDepth"] == 1)
        assert pending.cancel()
        gate.set()
        pool.shutdown(wait=False)  # used to raise InvalidStateError
        running.result(timeout=5)
        assert pending.cancelled()
