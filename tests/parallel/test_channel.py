"""Tests for the framed pipe channel under the sharded executor."""

import os
import pickle
import time

import pytest

from repro.core.errors import SimulationError
from repro.parallel.channel import channel_pair


def _fork_peer(body):
    """Fork a child that runs ``body(child_end)`` and exits; return the
    parent's end and the child's pid."""
    parent_end, child_end = channel_pair()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            parent_end.close()
            body(child_end)
            child_end.close()
            status = 0
        finally:
            os._exit(status)
    child_end.close()
    return parent_end, pid


def _echo(channel):
    while True:
        try:
            message = channel.recv()
        except EOFError:
            return
        channel.send(message)


def _body_of_pickled_size(size):
    """A bytes object whose pickle is exactly ``size`` bytes long."""
    payload = bytes(size)
    for _ in range(3):  # the pickle overhead steps with the length
        excess = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)) - size
        payload = bytes(len(payload) - excess)
    assert len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)) == size
    return payload


class TestRoundTrip:
    def test_objects_cross_a_fork_and_back(self):
        channel, pid = _fork_peer(_echo)
        try:
            for message in [("ready", 0), ("advance", 1.5e-6, [(0.0, 1, 2)]),
                            {"nested": [1.0, float("inf"), "café"]},
                            b"x", None]:
                channel.send(message)
                assert channel.recv(timeout=10.0) == message
        finally:
            channel.close()
        assert os.waitpid(pid, 0)[1] == 0

    # Around the 64 KiB single-read size, and far past the pipe buffer:
    # the echo peer blocks writing its reply until this side reads it,
    # which the request/response discipline always does.
    @pytest.mark.parametrize("size", [16, 65535 - 4, 65536 - 4, 65535,
                                      65536, 65537, 3 << 20])
    def test_body_sizes_around_the_read_chunk(self, size):
        payload = _body_of_pickled_size(size)
        channel, pid = _fork_peer(_echo)
        try:
            for _ in range(2):
                channel.send(payload)
                assert channel.recv(timeout=10.0) == payload
        finally:
            channel.close()
        assert os.waitpid(pid, 0)[1] == 0


class TestOneMessageInFlight:
    """Nothing is buffered between two ``recv`` calls, so a message
    queued behind the one being read cannot be kept — and must not be
    dropped in silence."""

    FIRST = ("fence", [(0, 2.5e-6, 7, [])])

    @pytest.mark.parametrize("queued", [
        [None],
        [("advance", [(1, 2.9e-6, [(2.6e-6, 0, 3, "tx", 0.0, 0.0, 0.0,
                                   1, 0.07, 7e-7)])])],
        [bytes(1000)],
        [("finish",), ("finish",), {"third": 3.0}],
    ])
    def test_second_send_before_recv_is_a_named_error(self, queued):
        left, right = channel_pair()
        try:
            left.send(self.FIRST)
            for message in queued:
                left.send(message)
            extra = sum(4 + len(pickle.dumps(message,
                                             pickle.HIGHEST_PROTOCOL))
                        for message in queued)
            with pytest.raises(SimulationError) as caught:
                right.recv(timeout=1.0)
            assert f"{extra} bytes follow the message just read" \
                in str(caught.value)
            assert "one-message-in-flight rule" in str(caught.value)
        finally:
            left.close()
            right.close()

    def test_a_send_after_each_recv_loses_nothing(self):
        left, right = channel_pair()
        try:
            for message in [self.FIRST, None, bytes(1000), ("finish",)]:
                left.send(message)
                assert right.recv(timeout=1.0) == message
        finally:
            left.close()
            right.close()


class TestPeerLifetime:
    def test_recv_from_exited_peer_is_eof(self):
        # Fails (by timing out) if the child kept an inherited copy of
        # the parent's end open past its exit — or the parent the
        # child's.
        channel, pid = _fork_peer(lambda child_end: None)
        try:
            assert os.waitpid(pid, 0)[1] == 0
            with pytest.raises(EOFError):
                channel.recv(timeout=5.0)
        finally:
            channel.close()

    def test_send_to_exited_peer_is_oserror(self):
        channel, pid = _fork_peer(lambda child_end: None)
        try:
            os.waitpid(pid, 0)
            with pytest.raises(OSError):
                channel.send("anyone there?")
        finally:
            channel.close()

    def test_silent_peer_times_out(self):
        channel, pid = _fork_peer(lambda child_end: child_end.recv())
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                channel.recv(timeout=0.2)
            assert 0.2 <= time.monotonic() - started < 2.0
            channel.send("done")  # releases the child
        finally:
            channel.close()
        assert os.waitpid(pid, 0)[1] == 0

    def test_close_is_idempotent_and_unclosed_end_warns(self):
        left, right = channel_pair()
        left.close()
        left.close()
        with pytest.warns(ResourceWarning, match="unclosed Channel"):
            del right
