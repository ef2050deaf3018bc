"""Unit tests for the zero-copy shared-memory array bundle."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.parallel import ArrayBundle, BundleSpec
from repro.parallel import shm


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    return {
        "x": rng.standard_normal((37, 8)).astype(np.float32),
        "labels": rng.integers(0, 5, size=37).astype(np.int64),
        "mask": np.array([True, False, True]),
        "empty": np.zeros((0, 4), dtype=np.float32),
    }


class TestPrivateBundle:
    def test_round_trips_contents(self, arrays):
        bundle = ArrayBundle.create(arrays, shared=False)
        for name, arr in arrays.items():
            view = bundle.view(name)
            np.testing.assert_array_equal(view, arr)
            assert view.dtype == arr.dtype
            assert view.shape == arr.shape

    def test_views_are_aliases_not_copies(self, arrays):
        bundle = ArrayBundle.create(arrays, shared=False)
        a = bundle.view("x")
        b = bundle.view("x")
        a[0, 0] = 99.0
        assert b[0, 0] == 99.0

    def test_no_spec_for_private(self, arrays):
        bundle = ArrayBundle.create(arrays, shared=False)
        with pytest.raises(ValueError):
            bundle.spec()

    def test_create_copies_inputs(self, arrays):
        bundle = ArrayBundle.create(arrays, shared=False)
        arrays["x"][0, 0] = -123.0
        assert bundle.view("x")[0, 0] != -123.0


class TestSharedBundle:
    def test_attach_sees_owner_writes(self, arrays):
        with ArrayBundle.create(arrays, shared=True) as owner:
            attached = ArrayBundle.attach(owner.spec())
            try:
                np.testing.assert_array_equal(attached.view("x"), arrays["x"])
                owner.view("x")[3, 3] = 7.5
                assert attached.view("x")[3, 3] == 7.5  # same physical pages
                attached.view("labels")[0] = 42
                assert owner.view("labels")[0] == 42
            finally:
                attached.close()

    def test_spec_is_tiny_and_graph_size_independent(self):
        small = {"x": np.zeros((10, 4), dtype=np.float32)}
        big = {"x": np.zeros((100_000, 4), dtype=np.float32)}
        with ArrayBundle.create(small, shared=True) as a, ArrayBundle.create(
            big, shared=True
        ) as b:
            small_spec = len(pickle.dumps(a.spec()))
            big_spec = len(pickle.dumps(b.spec()))
        # The spec carries offsets/shapes/dtypes, never array bytes.
        assert big_spec < 1024
        assert abs(big_spec - small_spec) < 64

    def test_views_are_cache_line_aligned(self, arrays):
        with ArrayBundle.create(arrays, shared=True) as bundle:
            for offset, _, _ in bundle.spec().entries.values():
                assert offset % 64 == 0

    def test_spec_pickles_and_reattaches(self, arrays):
        with ArrayBundle.create(arrays, shared=True) as bundle:
            spec = pickle.loads(pickle.dumps(bundle.spec()))
            assert isinstance(spec, BundleSpec)
            attached = ArrayBundle.attach(spec)
            try:
                np.testing.assert_array_equal(
                    attached.view("labels"), arrays["labels"]
                )
            finally:
                attached.close()

    def test_close_is_idempotent(self, arrays):
        bundle = ArrayBundle.create(arrays, shared=True)
        bundle.close()
        bundle.close()
        bundle.unlink()

    def test_nbytes_covers_all_entries(self, arrays):
        with ArrayBundle.create(arrays, shared=True) as bundle:
            total = sum(arr.nbytes for arr in arrays.values())
            assert bundle.nbytes >= total


class _FullShm:
    """``os.statvfs`` of a ``/dev/shm`` with one 4 KiB block free."""

    f_bavail = 1
    f_frsize = 4096


class TestDevShmRoom:
    """A segment is created sparse: without the free-space check a
    too-small ``/dev/shm`` accepts it and the first copy into it dies of
    SIGBUS.  With it, ``create`` raises first and leaves nothing behind."""

    def test_too_small_raises_before_creating_a_segment(
        self, monkeypatch, leak_check
    ):
        big = {"x": np.zeros((4096, 4), dtype=np.float32)}  # 64 KiB
        monkeypatch.setattr(shm.os, "statvfs", lambda path: _FullShm())
        with leak_check(), pytest.raises(OSError) as error:
            ArrayBundle.create(big, shared=True)
        assert "65536 bytes" in str(error.value)
        assert "4096 bytes free" in str(error.value)

    def test_private_bundles_and_a_missing_directory_skip_it(
        self, arrays, monkeypatch
    ):
        def statvfs(path):
            raise AssertionError("free space checked")

        monkeypatch.setattr(shm.os, "statvfs", statvfs)
        ArrayBundle.create(arrays, shared=False)
        monkeypatch.setattr(shm, "SHM_DIR", "/nonexistent/shm")
        with ArrayBundle.create(arrays, shared=True) as bundle:
            np.testing.assert_array_equal(bundle.view("x"), arrays["x"])


class TestLeakCheck:
    """The leak check counts the ``/dev/shm`` entries this process
    created, so a second pytest run on the host cannot fail this one."""

    def test_another_process_segment_is_not_a_leak(self, leak_check):
        path = f"{shm.SHM_DIR}/psm_foreign_{os.getpid()}"
        try:
            with leak_check():
                subprocess.run(
                    [sys.executable, "-c", f"open({path!r}, 'w').close()"],
                    check=True)
        finally:
            os.unlink(path)

    def test_own_segment_is_a_leak(self, arrays, leak_check):
        with pytest.raises(AssertionError, match="new /dev/shm entries"):
            with leak_check():
                bundle = ArrayBundle.create(arrays, shared=True)
        bundle.close()
        bundle.unlink()
