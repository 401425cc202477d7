"""The coordinator-worker wire: framed pickles over two ``os.pipe()``s.

One message is a 4-byte big-endian body length followed by
``pickle.dumps(obj, HIGHEST_PROTOCOL)``, written with a single
``os.write`` and — in the common case of a body under 64 KiB — read
with a single ``os.read``.  That is all a coordinator round needs, and
it costs about a third of ``multiprocessing.Connection.send/recv`` per
round trip (PERFORMANCE.md, "The wire").

The channel assumes the executor's request/response discipline: at most
one message is in flight per direction, so a read never has to split
what it got between two messages; a read that does hold bytes of a
second message raises :class:`~repro.core.errors.SimulationError`
instead of dropping them.  A peer that is gone is an ``EOFError`` on
:meth:`Channel.recv` — provided no other process still holds a copy of
the peer's ends, which is why every forked worker closes the
coordinator-side ends it inherited.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import warnings
from typing import Any, Optional, Tuple

from ..core.errors import SimulationError

_LENGTH = struct.Struct("!I")
_CHUNK = 65536


class Channel:
    """One end of a duplex message channel: a read fd and a write fd."""

    __slots__ = ("_rfd", "_wfd", "_poller")

    def __init__(self, rfd: int, wfd: int):
        self._rfd = rfd
        self._wfd = wfd
        self._poller = select.poll()
        self._poller.register(rfd, select.POLLIN)

    def send(self, obj: Any) -> None:
        """Write one message; ``OSError`` if the peer closed its end."""
        body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        data = _LENGTH.pack(len(body)) + body
        written = os.write(self._wfd, data)
        if written < len(data):
            view = memoryview(data)
            while written < len(data):
                written += os.write(self._wfd, view[written:])

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Read one message.

        Raises ``EOFError`` when the peer's write end is closed,
        ``TimeoutError`` when ``timeout`` seconds pass without a byte
        (``None`` waits forever) and ``SimulationError`` when a second
        message was already queued behind this one.
        """
        # The sender's single write into an empty pipe lands at least
        # PIPE_BUF bytes at once, so the first read holds the length.
        data = self._read(_CHUNK, timeout)
        end = _LENGTH.size + _LENGTH.unpack_from(data)[0]
        if len(data) > end:
            # Nothing is buffered between calls, so the next message
            # would be lost without a trace: fail where it happens.
            raise SimulationError(
                f"{len(data) - end} bytes follow the message just read: "
                f"the peer broke the one-message-in-flight rule (a second "
                f"send before this recv)")
        if len(data) < end:  # longer than one pipe buffer
            parts = [data]
            missing = end - len(data)
            while missing:
                part = self._read(min(missing, _CHUNK), timeout)
                parts.append(part)
                missing -= len(part)
            data = b"".join(parts)
        return pickle.loads(memoryview(data)[_LENGTH.size:end])

    def _read(self, size: int, timeout: Optional[float]) -> bytes:
        if timeout is not None and not self._poller.poll(timeout * 1000.0):
            raise TimeoutError(f"no data for {timeout:g} s")
        data = os.read(self._rfd, size)
        if not data:
            raise EOFError("peer closed the channel")
        return data

    def close(self) -> None:
        """Close both fds; safe to call twice."""
        rfd, wfd, self._rfd, self._wfd = self._rfd, self._wfd, -1, -1
        if rfd >= 0:
            os.close(rfd)
            os.close(wfd)

    def __del__(self):
        # An end that is never closed keeps its pipe open: a dead peer
        # then looks alive.  Warn like an unclosed file does, so
        # ``-W error::ResourceWarning`` catches the leak in tests.
        if self._rfd >= 0:
            fds = (self._rfd, self._wfd)
            self.close()
            warnings.warn(f"unclosed {type(self).__name__} (fds {fds})",
                          ResourceWarning, source=self)


def channel_pair() -> Tuple[Channel, Channel]:
    """Two connected ends: what one sends, the other receives."""
    a_read, b_write = os.pipe()
    b_read, a_write = os.pipe()
    return Channel(a_read, a_write), Channel(b_read, b_write)
