"""The one-BLAS-thread policy: ``tfc`` commands run scipy's OpenBLAS on one
thread, on the calling thread, and give the caller's count back; library
calls keep the caller's count.

Each test sets at most two BLAS threads on a process that already has them.
"""

import threading

import pytest

import tfconc as tc
from tfconc import _blas, cli, scaling

HANDLE = _blas._handle()
needs_handle = pytest.mark.skipif(HANDLE is None, reason="no OpenBLAS thread-count entry point")


@pytest.fixture()
def two_threads():
    """The process at two BLAS threads for the test, then back to its count."""
    before = HANDLE.get()
    HANDLE.set(2)
    yield
    HANDLE.set(before)


@needs_handle
def test_count_restored_after_exit_and_after_an_exception(two_threads):
    with _blas.one_thread():
        assert HANDLE.get() == 1
    assert HANDLE.get() == 2
    with pytest.raises(RuntimeError):
        with _blas.one_thread():
            assert HANDLE.get() == 1
            raise RuntimeError("boom")
    assert HANDLE.get() == 2


@needs_handle
def test_nested_use_keeps_one_thread(two_threads):
    with _blas.one_thread():
        with _blas.one_thread():
            assert HANDLE.get() == 1
        assert HANDLE.get() == 1
    assert HANDLE.get() == 2


@needs_handle
def test_overlapping_uses_restore_on_the_last_exit(two_threads):
    # two users whose blocks overlap without nesting, as two threads' would:
    # the first to leave must not hand the other two threads
    first, second = _blas.one_thread(), _blas.one_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert HANDLE.get() == 1
    second.__exit__(None, None, None)
    assert HANDLE.get() == 2


def test_missing_entry_point_is_a_no_op(monkeypatch):
    monkeypatch.setattr(_blas, "_handle", lambda: None)
    before = HANDLE.get() if HANDLE is not None else None
    with _blas.one_thread():
        if HANDLE is not None:
            assert HANDLE.get() == before
    assert _blas._PIN.depth == 0


def _spy(monkeypatch, module, seen):
    """Wrap ``module.eigendecompose`` to record the BLAS thread count and the
    calling thread of every call."""
    original = module.eigendecompose

    def spy(*args, **kwargs):
        seen.append((HANDLE.get(), threading.get_ident()))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "eigendecompose", spy)


@needs_handle
def test_a_library_sweep_keeps_the_callers_count(monkeypatch, two_threads):
    seen = []
    _spy(monkeypatch, scaling, seen)
    report = scaling.scaling_experiment("gaussian", tc.Disc((0.0, 0.0), 0.5), [1.0, 1.5, 2.0])
    assert len(report.rows) == 3
    assert seen == [(2, threading.get_ident())] * 3
    assert HANDLE.get() == 2


@needs_handle
@pytest.mark.parametrize(
    "argv, solves",
    [
        (["decay", "--region", "disc 0 0 1"], 1),
        (["asymptotics", "--region", "disc 0 0 1", "--scales", "1,1.5,2"], 3),
    ],
    ids=["decay", "asymptotics"],
)
def test_a_command_runs_on_one_blas_thread(monkeypatch, tmp_path, two_threads, argv, solves):
    seen = []
    _spy(monkeypatch, cli, seen)
    _spy(monkeypatch, scaling, seen)
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert seen == [(1, threading.get_ident())] * solves
    assert HANDLE.get() == 2
