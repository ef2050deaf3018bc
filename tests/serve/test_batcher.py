"""Unit tests for the request batcher: work-conserving coalescing,
admission control and lifecycle.

Nothing here is timed.  Batches are steered with a handler that holds
each batch until the test lets it go; every wait carries a timeout only
so that a bug fails the test instead of hanging it.
"""

import contextlib
import queue
import sys
import threading

import numpy as np
import pytest

from repro.serve import RequestBatcher, ServeRequest

WAIT_S = 5.0


def answer_all(batch):
    for request in batch:
        request.finish(result={})


def make_request(vertex=0):
    return ServeRequest(
        vertices=np.array([vertex]), mode="classify", trace_id=f"t{vertex}"
    )


class GatedHandler:
    """Records each batch, then holds it until ``let_go`` is called."""

    def __init__(self):
        self.sizes = []
        self._entered = threading.Semaphore(0)
        self._gate = threading.Semaphore(0)

    def __call__(self, batch):
        self.sizes.append(len(batch))
        self._entered.release()
        assert self._gate.acquire(timeout=WAIT_S)
        for request in batch:
            request.finish(result={})

    def wait_entered(self):
        """Block until one more batch has reached the handler."""
        assert self._entered.acquire(timeout=WAIT_S)

    def let_go(self, batches=1):
        for _ in range(batches):
            self._gate.release()


@contextlib.contextmanager
def running(handler, **kwargs):
    """A batcher over ``handler``; on the way out a gated handler lets
    every batch go, and the batcher closes."""
    batcher = RequestBatcher(handler, **kwargs)
    try:
        yield batcher
    finally:
        if isinstance(handler, GatedHandler):
            handler.let_go(8)
        batcher.close()


def answer_one(handler):
    """One request through a batcher over ``handler``, once answered."""
    with running(handler, max_batch=4) as batcher:
        request = make_request()
        batcher.submit(request)
        assert request.done.wait(timeout=WAIT_S)
    return request


def submit_all(batcher, count, first_vertex=0):
    requests = [make_request(first_vertex + k) for k in range(count)]
    for request in requests:
        assert batcher.submit(request)
    return requests


class TestCoalescing:
    def test_lone_request_dispatches_with_no_timer(self):
        batches = []
        # Nothing else is ever submitted: the request must not wait for
        # company.  The handler only records; the dispatcher's forgot-one
        # backstop unblocks the request, which doubles as the dispatch
        # signal.
        answer_one(batches.append)
        assert len(batches) == 1 and len(batches[0]) == 1

    def test_requests_that_arrive_during_a_batch_form_the_next_one(self):
        handler = GatedHandler()
        with running(handler, max_batch=8) as batcher:
            first = submit_all(batcher, 1)
            handler.wait_entered()  # the worker is busy with batch one
            rest = submit_all(batcher, 5, first_vertex=1)
            handler.let_go(2)
            for request in first + rest:
                assert request.done.wait(timeout=WAIT_S)
            assert handler.sizes == [1, 5]
            assert batcher.stats()["batches"] == 2

    def test_full_batch_closes_at_max_batch(self):
        handler = GatedHandler()
        with running(handler, max_batch=3) as batcher:
            first = submit_all(batcher, 1)
            handler.wait_entered()
            rest = submit_all(batcher, 7, first_vertex=1)
            handler.let_go(4)
            for request in first + rest:
                assert request.done.wait(timeout=WAIT_S)
            # 7 queued behind the held batch: ceil(7 / 3) batches
            assert handler.sizes == [1, 3, 3, 1]

    def test_handler_error_fails_every_request(self):
        def handler(batch):
            raise RuntimeError("boom")

        assert isinstance(answer_one(handler).error, RuntimeError)

    def test_forgotten_request_gets_error_backstop(self):
        def handler(batch):
            pass  # finishes nothing

        assert isinstance(answer_one(handler).error, RuntimeError)


class TestAdmission:
    def test_submit_rejects_when_queue_full(self):
        handler = GatedHandler()
        with running(handler, max_batch=1, max_queue=2) as batcher:
            assert batcher.submit(make_request(0))
            handler.wait_entered()  # one request occupies the worker
            results = [batcher.submit(make_request(v)) for v in range(1, 8)]
            assert results == [True, True] + [False] * 5
            assert batcher.rejected == 5
            assert batcher.queue_depth == 2

    def test_stats_counts(self):
        with running(answer_all, max_batch=2) as batcher:
            request = make_request()
            batcher.submit(request)
            assert request.done.wait(timeout=WAIT_S)
            assert batcher.stats() == {
                "max_batch": 2, "max_queue": 128, "submitted": 1,
                "rejected": 0, "batches": 1, "queue_depth": 0,
            }

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestBatcher(lambda b: None, max_batch=0)
        with pytest.raises(ValueError):
            RequestBatcher(lambda b: None, max_queue=0)
        # the batching timer is gone, not defaulted
        with pytest.raises(TypeError):
            RequestBatcher(lambda b: None, max_wait_s=0.0)

    def test_concurrent_submitters_lose_and_double_nothing(self):
        """More submitters than cores, a short switch interval: every
        submit is counted once, every admitted request is answered once,
        every refused one never."""
        answered = []  # appended by the one worker thread only

        def handler(batch):
            for request in batch:
                answered.append(request.trace_id)
                request.finish(result={})

        batcher = RequestBatcher(handler, max_batch=4, max_queue=3)
        admitted, refused = [], []
        sides = threading.Lock()

        def submitter(base):
            for k in range(200):
                request = make_request(base + k)
                took = batcher.submit(request)
                with sides:
                    (admitted if took else refused).append(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submitter, args=(1000 * t,))
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert len(admitted) + len(refused) == 1600
        assert batcher.submitted == len(admitted)
        assert batcher.rejected == len(refused)
        assert all(r.done.is_set() and r.error is None for r in admitted)
        assert not any(r.done.is_set() for r in refused)
        assert sorted(answered) == sorted(r.trace_id for r in admitted)


class TestClose:
    def test_close_is_idempotent_and_joins(self):
        batcher = RequestBatcher(lambda b: None, max_batch=1)
        batcher.close()
        batcher.close()
        assert not batcher._thread.is_alive()

    def test_pending_request_still_dispatched_on_close(self):
        done = []
        batcher = RequestBatcher(
            lambda batch: done.extend(r.finish(result={}) or 1 for r in batch),
            max_batch=64,
        )
        request = make_request()
        batcher.submit(request)
        batcher.close()
        assert request.done.wait(timeout=1.0)

    def test_close_answers_everything_queued_before_it(self):
        handler = GatedHandler()
        batcher = RequestBatcher(handler, max_batch=2)
        requests = submit_all(batcher, 1)
        handler.wait_entered()
        requests += submit_all(batcher, 4, first_vertex=1)
        closer = threading.Thread(target=batcher.close)
        closer.start()
        handler.let_go(3)
        closer.join(timeout=WAIT_S)
        assert not closer.is_alive()
        assert not batcher._thread.is_alive()
        assert handler.sizes == [1, 2, 2]
        assert all(r.done.is_set() and r.error is None for r in requests)

    def test_submit_after_close_is_refused(self):
        batcher = RequestBatcher(lambda b: None)
        batcher.close()
        request = make_request()
        # not parked behind the stop sentinel, where no worker would
        # answer it before its caller's timeout
        assert batcher.submit(request) is False
        assert batcher.rejected == 1 and batcher.submitted == 0
        assert not request.done.is_set()

    def test_idle_worker_blocks_instead_of_polling(self, monkeypatch):
        calls = []
        plain_get = queue.Queue.get

        def recording_get(self, block=True, timeout=None):
            calls.append((block, timeout))
            return plain_get(self, block, timeout)

        monkeypatch.setattr(queue.Queue, "get", recording_get)
        batcher = RequestBatcher(answer_all)
        request = make_request()
        batcher.submit(request)
        assert request.done.wait(timeout=WAIT_S)
        batcher.close()  # the sentinel wakes the blocked worker
        assert not batcher._thread.is_alive()
        # every blocking get waits for as long as it takes: no wake-ups
        # with nothing to do
        assert calls and all(
            timeout is None for block, timeout in calls if block
        )
