"""The fold helper: one process per process that folds the private LSTM of a pair.

``nn._each`` runs a pair of folds in two processes when ``nn._concurrent``
allows it: the calling process folds the shared layer, and the helper,
started here at the first such pair, folds the private one. The helper
may run on any CPU this process may use. The two share one block of
memory for the arrays (a memfd, mapped on each side), and talk over two
pipes: the caller sends a request of one of four kinds (:data:`_TAPED`,
:data:`_BACKWARD`, :data:`_STATES` or :data:`_FINAL`) and the helper sends
one reply. The helper holds one taped fold, its latest, for that fold's
backward; the backward of any other fold runs in the caller. The helper
makes the same sequence of numpy calls on the same values, so the numbers
are bitwise those of the serial path, whichever is taken. Where it cannot
start (no ``os.memfd_create`` or no ``sys.executable``), every pair folds
serially.
"""

from __future__ import annotations

import atexit
import math
import mmap
import os
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np


def allowed_cpus() -> int:
    """The number of CPUs this process may run on (all of them where there is no affinity set)."""
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The operations of nn._each, and the helper's request kinds: a taped fold,
# which the helper holds for its backward until the next taped fold; that
# fold's backward; and an untaped fold, of every state or of the final ones.
_TAPED, _BACKWARD, _STATES, _FINAL = range(4)
# The helper's command: the directory that holds this package goes first on
# its path, then the argv of _Helper: that directory and three descriptors.
_HELPER_MAIN = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from advmtl import processes; processes._serve(*map(int, sys.argv[2:]))")
_ALIGN = 8  # floats: every array in the shared block starts on a 64-byte line


def _layout(shapes) -> tuple[list, int]:
    """Where arrays of ``shapes`` lie in the shared block: ``[(offset, shape)]``, and the end.

    Offsets and sizes count floats.
    """
    spans, at = [], 0
    for shape in shapes:
        spans.append((at, tuple(shape)))
        at += -(-math.prod(shape) // _ALIGN) * _ALIGN
    return spans, at


class _Block:
    """A block of float64 shared between the caller and the helper: a memfd, mapped on each side."""

    def __init__(self, fd: int):
        self.fd, self.size, self.floats = fd, 0, np.empty(0)

    def map(self, size: int) -> None:
        """Map the first ``size`` floats; an old mapping goes when no view of it is left."""
        if size != self.size:
            self.size, self.floats = size, np.frombuffer(mmap.mmap(self.fd, 8 * size), np.float64)

    def view(self, at: int, shape) -> np.ndarray:
        return self.floats[at:at + math.prod(shape)].reshape(shape)


def _portable(cls: type) -> type:
    """The first class in ``cls``'s MRO the caller can build from a message: built-in or ours."""
    return next(c for c in cls.__mro__
                if c.__module__ == "builtins" or c.__module__.startswith(__package__))


def _serve(requests_fd: int, replies_fd: int, memfd: int) -> None:
    """The helper's loop: one reply to each request, until the request pipe ends.

    Every fold reads its inputs from the shared block and writes its
    outputs there, under the caller's numpy error state; the reply carries
    the exception it raised, if any, the warnings and the count of
    requests served. A taped fold keeps copies of ``X`` and ``W``, since
    the next request writes the block again, and is held until its
    backward or the next taped fold, which frees it first.
    """
    from multiprocessing.connection import Connection

    from . import nn  # here, not at the top: nn imports this module

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    requests = Connection(requests_fd, writable=False)
    replies = Connection(replies_fd, readable=False)
    block, fold, served = _Block(memfd), None, 0
    while True:
        try:
            kind, err, size, ins, outs, steps = requests.recv()
        except EOFError:  # the caller closed its end, or exited
            return
        block.map(size)
        ins, outs = ([block.view(*span) for span in spans] for spans in (ins, outs))
        packing = steps and nn.Packing(None, *steps, None, None, None)  # the folds read these two
        error = None
        with warnings.catch_warnings(record=True) as caught, np.errstate(**err):
            warnings.simplefilter("always")
            try:
                if kind == _BACKWARD:
                    fold.backward(*ins, outs)
                elif kind == _TAPED:
                    fold = None  # the last one goes before this one is built
                    X, W, b = ins
                    fold = nn._LstmFold(X.copy(), W.copy(), b, packing)
                    outs[0][...] = fold.H
                elif kind == _FINAL:
                    outs[0][...] = nn._final_fold(*ins, packing)
                else:
                    nn._LstmFold(*ins, packing, outs[0])
            except Exception as exc:  # raised again in the caller
                cls = _portable(type(exc))
                error = cls, str(exc) if cls is type(exc) else f"{type(exc).__name__}: {exc}"
        if kind == _BACKWARD:
            fold = None
        served += 1
        replies.send((error, [(str(w.message), _portable(w.category)) for w in caught], served))


class _Remote:
    """A taped fold in ``helper``, whose reply to it was its ``serial``-th, and its arguments.

    Its backward runs in the helper while the helper holds it, else here.
    """

    def __init__(self, helper: _Helper, serial: int, args: tuple):
        self.helper, self.serial, self.args = helper, serial, args


class _Helper:
    """The caller's end of a helper process: two pipes, the shared block and a lock.

    The lock is held from a request to its reply, and guards ``held``: the
    serial of the taped fold the helper holds, or None. ``served`` is the
    helper's count of the requests it has answered, as of its last reply.
    """

    def __init__(self):
        from multiprocessing.connection import Connection

        self.block = _Block(os.memfd_create("advmtl-fold", os.MFD_CLOEXEC))
        (requests_r, requests_w), (replies_r, replies_w) = os.pipe(), os.pipe()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        fds = (requests_r, replies_w, self.block.fd)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _HELPER_MAIN, root, *map(str, fds)], pass_fds=fds,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except BaseException:
            for fd in (requests_w, replies_r, self.block.fd):
                os.close(fd)
            raise
        finally:
            os.close(requests_r)
            os.close(replies_w)
        self.requests = Connection(requests_w, readable=False)
        self.replies = Connection(replies_r, writable=False)
        self.lock, self.held, self.served = threading.Lock(), None, 0
        self.closed = False

    def send(self, op) -> bool:
        """Write ``op``'s inputs into the block and send its request.

        False if the helper is gone, or no longer holds the fold of a backward.
        """
        kind, *args = op
        if kind == _BACKWARD:
            remote, g = args
            X, W = remote.args[:2]
            ins, outs, steps = (g,), (X.shape, W.shape, W.shape[:1]), None
        else:
            X, W, b, packing, *H = args
            ins, steps = (X, W, b), (packing.active, packing.offs)
            outs = ((packing.active[0], len(b) // 4) if kind == _FINAL else H[0].shape,)
        spans, size = _layout([a.shape for a in ins] + list(outs))
        if self.closed or kind == _BACKWARD and self.held != remote.serial:
            return False
        try:
            if size > self.block.size:
                size = max(size, 2 * self.block.size)
                os.ftruncate(self.block.fd, 8 * size)
                self.block.map(size)
            for span, a in zip(spans, ins):
                self.block.view(*span)[...] = a
            self.requests.send((kind, np.geterr(), self.block.size, spans[:len(ins)],
                                spans[len(ins):], steps))
        except OSError:
            self.lost()
            return False
        self.pending = spans[len(ins):]
        return True

    def receive(self, op) -> tuple | None:
        """The reply to ``op``: its result, copied out of the block, the warnings and the error.

        None if the helper is gone.
        """
        try:
            error, caught, self.served = self.replies.recv()
        except (EOFError, OSError):
            self.lost()
            return None
        except BaseException:  # an interrupt: the reply may yet come, so the helper is out of step
            self.lost()
            raise
        kind, *args = op
        if kind == _TAPED or kind == _BACKWARD:  # the helper has let its fold go
            self.held = None
        if error is not None:
            return None, caught, error[0](error[1])
        outs = [self.block.view(*span) for span in self.pending]
        if kind == _BACKWARD:
            return tuple(a.copy() for a in outs), caught, None
        if kind == _FINAL:
            return outs[0].copy(), caught, None
        X, W, b, packing, H = args
        H[...] = outs[0]
        if kind == _STATES:
            return H, caught, None
        self.held = self.served
        return _Remote(self, self.served, (X, W, b, packing)), caught, None

    def lost(self) -> None:
        """Forget this helper, dead or out of step; if it never answered, start no other."""
        global _helper, _unavailable
        with _start_lock:
            if _helper is self:
                _helper = None
                _unavailable = not self.served
        self.close(kill=True)

    def close(self, kill: bool = False) -> None:
        """End the helper, which returns when its request pipe ends, and reap it."""
        if self.closed:
            return
        self.closed = True
        if kill:
            self.proc.kill()
        self.requests.close()
        self.replies.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        os.close(self.block.fd)


_helper: _Helper | None = None
_unavailable = False  # no memfd_create or no interpreter here, or the helper never answered
_start_lock = threading.Lock()


def _start_helper() -> _Helper | None:
    """This process's helper, started if there is none; None where it cannot start."""
    global _helper, _unavailable
    with _start_lock:
        if _helper is None and not _unavailable:
            try:
                if not (sys.executable and hasattr(os, "memfd_create")):
                    raise OSError("no interpreter to run, or no shared memory")
                _helper = _Helper()
            except (OSError, subprocess.SubprocessError):
                _unavailable = True
        return _helper


def _stop_helper() -> None:
    """End this process's helper, if any; the next concurrent pair starts another."""
    global _helper
    with _start_lock:
        helper, _helper = _helper, None
    if helper is not None:
        helper.close()


def _forget_helper() -> None:
    """In a forked child: close the inherited ends of the parent's helper, which keeps running."""
    global _helper, _start_lock
    helper, _helper, _start_lock = _helper, None, threading.Lock()
    if helper is not None:
        helper.closed = True
        helper.requests.close()
        helper.replies.close()
        os.close(helper.block.fd)


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):  # every platform that forks
    os.register_at_fork(after_in_child=_forget_helper)


def _plain(*arrays: np.ndarray) -> bool:
    """Whether the helper computes what this process would.

    The arrays are C-contiguous float64, and numpy's error state only
    ignores, warns or raises.
    """
    return (all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)
            and set(np.geterr().values()) <= {"ignore", "warn", "raise"})
