"""The HTTP/1.1 keep-alive front end under both servers.

Connection reuse, the one-write reply, every fault the connection loop
answers by itself, client hang-ups, and ``stop()`` with connections
open.  Nothing here sleeps to synchronise: a test either reads a reply
(which is the synchronisation) or polls a counter against a deadline.
"""

import http.client
import json
import logging
import socket
import threading
import time

import pytest
from conftest import WAIT_S, wait_until

from repro.httpd import MAX_BODY_BYTES, MAX_HEADER_BYTES, HTTPFrontEnd, error_reply


class Echo(HTTPFrontEnd):
    """Routes that exercise the loop, not an application."""

    def __init__(self):
        super().__init__("test-echo")
        self.entered = threading.Event()
        self.release = threading.Event()

    def route(self, method, path, query, body):
        if path == "/echo":
            return 200, "text/plain", body or query.encode()
        if path == "/boom":
            raise RuntimeError("route blew up")
        if path == "/big":
            return 200, "application/octet-stream", b"x" * (32 << 20)
        if path == "/hold":
            self.entered.set()
            assert self.release.wait(timeout=WAIT_S)
            return 200, "text/plain", b"held"
        return error_reply(404, "not found")


@pytest.fixture()
def front():
    with Echo() as server:
        yield server


def handler_threads(front):
    return [thread for thread in threading.enumerate()
            if thread.name == f"{front.name}-connection"]


def connect(front):
    sock = socket.create_connection(("127.0.0.1", front.port), timeout=WAIT_S)
    return sock, sock.makefile("rb")


def read_reply(reader):
    """(status, headers, body) of the next reply on a raw connection."""
    status = int(reader.readline().split()[1])
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


def exchange(front, request):
    """Send raw bytes on a fresh connection; (status, headers, body, and
    whether the server then closed the connection)."""
    sock, reader = connect(front)
    with sock, reader:
        sock.sendall(request)
        status, headers, body = read_reply(reader)
        if headers.get("connection") != "close":
            return status, headers, body, False
        try:
            return status, headers, body, reader.read(1) == b""
        except ConnectionResetError:  # closed with bytes of ours unread
            return status, headers, body, True


def assert_still_answers(front):
    status, _, body, _ = exchange(front, b"GET /echo?alive HTTP/1.1\r\n\r\n")
    assert (status, body) == (200, b"alive")


class TestKeepAlive:
    def test_many_requests_one_connection_one_thread(self, front):
        conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=WAIT_S)
        for index in range(20):
            conn.request("POST", "/echo", body=f"n={index}")
            response = conn.getresponse()
            assert (response.status, response.read()) == (200, f"n={index}".encode())
            assert len(handler_threads(front)) == 1
        assert front.connections == 1
        conn.close()
        wait_until(lambda: not handler_threads(front))
        assert front.client_disconnects == 0  # a close between requests

    def test_http10_request_is_answered_then_closed(self, front):
        status, headers, body, closed = exchange(front, b"GET /echo?old HTTP/1.0\r\n\r\n")
        assert (status, body, closed) == (200, b"old", True)
        assert headers["connection"] == "close"

    def test_connection_close_is_answered_then_closed(self, front):
        status, _, body, closed = exchange(
            front, b"GET /echo?bye HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert (status, body, closed) == (200, b"bye", True)

    def test_pipelined_requests_are_answered_in_order(self, front):
        sock, reader = connect(front)
        with sock, reader:
            sock.sendall(
                b"POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\none"
                b"POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo"
            )
            assert read_reply(reader)[2] == b"one"
            assert read_reply(reader)[2] == b"two"
        assert front.connections == 1

    def test_reply_is_one_write_on_a_nodelay_socket(self, front, monkeypatch):
        writes = []

        def spy(name):
            real = getattr(socket.socket, name)

            def write(sock, data, *args):
                if sock.getsockname()[1] == front.port:  # an accepted socket
                    nodelay = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    writes.append((name, bool(nodelay), bytes(data)))
                return real(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, write)

        for name in ("sendall", "send"):
            spy(name)
        conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=WAIT_S)
        for _ in range(3):
            conn.request("POST", "/echo", body="payload")
            assert conn.getresponse().read() == b"payload"
        conn.close()
        assert len(writes) == 3
        for name, nodelay, data in writes:
            assert name == "sendall" and nodelay
            assert data.startswith(b"HTTP/1.1 200 OK\r\n")
            assert data.endswith(b"\r\n\r\npayload")


class TestFaults:
    """Each fault: its status, promptly; nothing on stderr; and the
    server answers the next request."""

    @pytest.mark.parametrize("request_bytes, status, closed", [
            (b"NONSENSE\r\n\r\n", 400, True),
            (b"GET /echo\r\n\r\n", 400, True),  # HTTP/0.9: no version
            (b"POST /echo HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400, True),
            (b"POST /echo HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400, True),
            (b"POST /echo HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
             % (MAX_BODY_BYTES + 1), 413, True),
            (b"POST /echo HTTP/1.1\r\nContent-Length: " + b"9" * 5000
             + b"\r\n\r\n", 413, True),
            (b"GET /echo HTTP/1.1\r\n"
             + (b"X-Pad: " + b"a" * 1000 + b"\r\n") * (MAX_HEADER_BYTES // 1000 + 1),
             431, True),
            (b"GET /" + b"a" * MAX_HEADER_BYTES + b" HTTP/1.1\r\n", 431, True),
            (b"DELETE /echo HTTP/1.1\r\n\r\n", 405, False),
            (b"BREW /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi", 405, False),
            (b"GET /boom HTTP/1.1\r\n\r\n", 500, False),
        ], ids=["garbage-line", "no-version", "length-abc", "length-negative",
             "body-too-large", "length-5000-digits", "headers-too-large",
             "line-too-large", "delete", "unknown-method-with-body",
             "route-raises"])
    def test_status_quiet_and_still_serving(
        self, front, capfd, request_bytes, status, closed
    ):
        got, headers, body, was_closed = exchange(front, request_bytes)
        assert (got, was_closed) == (status, closed)
        assert headers["content-type"] == "application/json"
        assert "error" in json.loads(body)
        assert_still_answers(front)
        assert capfd.readouterr().err == ""

    def test_route_exception_is_logged_and_the_connection_survives(
        self, front, caplog
    ):
        sock, reader = connect(front)
        with sock, reader, caplog.at_level(logging.ERROR, logger="repro.httpd"):
            sock.sendall(b"GET /boom HTTP/1.1\r\n\r\n")
            status, _, body = read_reply(reader)
            assert status == 500
            assert "route blew up" in json.loads(body)["error"]
            sock.sendall(b"GET /echo?next HTTP/1.1\r\n\r\n")
            assert read_reply(reader)[2] == b"next"  # same connection
        assert any(record.exc_info for record in caplog.records)
        assert front.connections == 1

    def test_unknown_method_keeps_the_connection_in_frame(self, front):
        sock, reader = connect(front)
        with sock, reader:
            sock.sendall(b"PUT /echo HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody")
            assert read_reply(reader)[0] == 405
            sock.sendall(b"GET /echo?next HTTP/1.1\r\n\r\n")
            assert read_reply(reader)[2] == b"next"


class TestClientHangUp:
    @pytest.mark.parametrize("partial", [
        b"POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        b"POST /echo HTTP/1.1\r\nContent-Le",
        b"GET /ec",
    ], ids=["mid-body", "mid-header", "mid-line"])
    def test_mid_request(self, front, capfd, partial):
        sock, reader = connect(front)
        with sock, reader:
            sock.sendall(partial)
        wait_until(lambda: front.client_disconnects == 1)
        wait_until(lambda: not handler_threads(front))
        assert_still_answers(front)
        assert capfd.readouterr().err == ""

    def test_mid_reply(self, front, capfd):
        sock, reader = connect(front)
        with sock, reader:
            sock.sendall(b"GET /big HTTP/1.1\r\n\r\n")
            reader.read(1024)  # the reply has started; leave the rest unread
        wait_until(lambda: front.client_disconnects == 1)
        wait_until(lambda: not handler_threads(front))
        assert_still_answers(front)
        assert capfd.readouterr().err == ""


class TestStop:
    def test_idle_keep_alive_connection_does_not_outlive_stop(self):
        front = Echo().start()
        conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=WAIT_S)
        conn.request("GET", "/echo?hello")
        assert conn.getresponse().read() == b"hello"
        assert len(handler_threads(front)) == 1  # parked on the next read
        started = time.monotonic()
        front.stop()
        assert time.monotonic() - started < 1.0
        assert not handler_threads(front)
        assert front.port is None and front.url is None
        with pytest.raises((ConnectionError, http.client.HTTPException)):
            conn.request("GET", "/echo?again")
            conn.getresponse()
        conn.close()
        assert front.client_disconnects == 0

    def test_request_in_flight_is_answered(self):
        front = Echo().start()
        conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=WAIT_S)
        conn.request("GET", "/hold")
        assert front.entered.wait(timeout=WAIT_S)
        front.stop_accepting()
        front.release.set()
        front.close_connections()
        response = conn.getresponse()
        assert (response.status, response.read()) == (200, b"held")
        conn.close()
        assert not handler_threads(front)

    def test_start_and_stop_are_idempotent(self):
        front = Echo()
        front.stop()  # never started
        assert front.start().port == front.start().port
        front.stop()
        front.stop()
        assert front.port is None
