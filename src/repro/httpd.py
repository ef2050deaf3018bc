"""The one HTTP server in ``src/``: an HTTP/1.1 keep-alive front end.

:class:`HTTPFrontEnd` is a ``socketserver.ThreadingTCPServer`` whose
handler is a connection loop; :class:`~repro.serve.server.ServingServer`
and :class:`~repro.obs.live.MetricsServer` each add a ``route``.  One
thread per *connection* reads a request line, scans the headers for
``Content-Length`` and ``Connection`` only, reads the body, calls
``route`` and answers with exactly one ``sendall(head + body)`` on a
``TCP_NODELAY`` socket (two writes would be two segments, the second
held back by Nagle until the client's delayed ACK).  HTTP/1.1
connections persist until the client closes or sends ``Connection:
close``; HTTP/1.0 requests are answered and closed.  There is no idle
timeout: a server-side idle close races the client's next request.
DESIGN.md §10 has the fault table (what is answered 400 / 405 / 413 /
431 / 500, and which of those close the connection).
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20  #: a longer body is answered 413, unread
MAX_HEADER_BYTES = 64 << 10  #: a longer request line + headers, 431
JOIN_TIMEOUT_S = 5.0  #: ``stop`` waits this long for each thread
Reply = Tuple[int, str, bytes]  #: (status, content type, body) from ``route``


def json_reply(status: int, doc: Any) -> Reply:
    return status, "application/json", json.dumps(doc).encode()


def error_reply(status: int, message: str) -> Reply:
    return json_reply(status, {"error": message})


class _Connection(socketserver.StreamRequestHandler):
    """One accepted socket: requests in, replies out, until it ends."""

    disable_nagle_algorithm = True  # TCP_NODELAY

    def handle(self) -> None:
        front: HTTPFrontEnd = self.server.front  # type: ignore[attr-defined]
        try:
            while self._serve_one(front):
                pass
        except OSError as error:  # reset, broken pipe, EOF inside a request
            front._count("client_disconnects")
            logger.debug("%s: client hung up: %s", front.name, error)

    def _line(self, budget: int) -> bytes:
        """The next line of the request head, of which ``budget`` is left."""
        line = self.rfile.readline(budget + 1)
        if not line.endswith(b"\n") and len(line) <= budget:
            raise ConnectionError("end of stream inside a request")
        return line

    def _serve_one(self, front: "HTTPFrontEnd") -> bool:
        """Answer one request; False when the connection is over.  The
        replies with ``close=True`` are where the next request's framing
        is lost."""
        if not self.rfile.peek(1):
            return False  # the client closed between requests
        line = self._line(MAX_HEADER_BYTES)
        budget = MAX_HEADER_BYTES - len(line)
        parts = line.decode("latin-1").split()
        if budget >= 0 and (len(parts) != 3 or not parts[2].startswith("HTTP/")):
            return self._reply(error_reply(400, "malformed request line"), True)
        length, connection = b"0", b""
        while budget >= 0:
            header = self._line(budget)
            budget -= len(header)
            if header in (b"\r\n", b"\n"):
                break
            name, _, value = header.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = value.strip()
            elif name == b"connection":
                connection = value.strip().lower()
        if budget < 0:
            return self._reply(error_reply(431, "request head too large"), True)
        if not length.isdigit():
            return self._reply(error_reply(
                400, "Content-Length must be a non-negative integer"), True)
        # More than 8 digits is over the limit without converting them.
        size = MAX_BODY_BYTES + 1 if len(length) > 8 else int(length)
        if size > MAX_BODY_BYTES:
            return self._reply(error_reply(413, "request body too large"), True)
        body = self.rfile.read(size)
        if len(body) < size:
            raise ConnectionError("end of stream inside a request body")
        method, target, version = parts
        close = version != "HTTP/1.1" or connection == b"close"
        if method not in ("GET", "POST"):
            return self._reply(
                error_reply(405, f"method {method} not allowed"), close)
        path, _, query = target.partition("?")
        try:
            reply = front.route(method, path, query, body)
        except Exception as error:  # noqa: BLE001 - serve a 500, keep running
            logger.exception("%s: %s %s failed", front.name, method, path)
            reply = error_reply(500, f"{type(error).__name__}: {error}")
        return self._reply(reply, close)

    def _reply(self, reply: Reply, close: bool) -> bool:
        status, content_type, body = reply
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        self.connection.sendall(head.encode("latin-1") + body)
        return not close


class _Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True

    def process_request(self, request, client_address) -> None:
        # Registered on the accept thread, before the handler thread
        # exists: once accepting has stopped, ``_open`` is complete.
        front: HTTPFrontEnd = self.front  # type: ignore[attr-defined]
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address),
            name=f"{front.name}-connection", daemon=True,
        )
        with front._lock:
            front._open[request] = thread
        front._count("connections")
        thread.start()

    def shutdown_request(self, request) -> None:
        with self.front._lock:  # type: ignore[attr-defined]
            self.front._open.pop(request, None)  # type: ignore[attr-defined]
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        logger.exception("%s: connection handler failed", self.front.name)


class HTTPFrontEnd:
    """Background HTTP/1.1 server; a subclass implements :meth:`route`.

    ``port=0`` binds ephemerally (:attr:`port` / :attr:`url` report it
    while started).  Accepting and every connection run on daemon
    threads; usable as a context manager.  ``connections`` counts
    accepted sockets, ``client_disconnects`` those the client dropped
    inside a request or a reply.
    """

    def __init__(self, name: str, port: int = 0, host: str = "127.0.0.1") -> None:
        self.name = name
        self.host = host
        self._requested_port = port
        self._listener: Optional[_Listener] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._open: Dict[socket.socket, threading.Thread] = {}
        self.connections = 0
        self.client_disconnects = 0

    def route(self, method: str, path: str, query: str, body: bytes) -> Reply:
        """Answer one request (on the connection's thread)."""
        raise NotImplementedError

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def port(self) -> Optional[int]:
        return self._listener.server_address[1] if self._listener else None

    @property
    def url(self) -> Optional[str]:
        return f"http://{self.host}:{self.port}" if self._listener else None

    def start(self) -> "HTTPFrontEnd":
        """Bind the socket and spawn the accept thread (idempotent)."""
        if self._listener is None:
            self._listener = _Listener((self.host, self._requested_port), _Connection)
            self._listener.front = self  # type: ignore[attr-defined]
            self._thread = threading.Thread(
                target=self._listener.serve_forever, args=(0.05,),
                name=f"{self.name}-server", daemon=True,
            )
            self._thread.start()
            logger.info("%s listening on %s", self.name, self.url)
        return self

    def stop_accepting(self) -> None:
        """Close the listening socket; open connections keep running."""
        if self._listener is not None:
            self._listener.shutdown()
            self._listener.server_close()
            self._listener = None
            self._thread.join(timeout=JOIN_TIMEOUT_S)

    def close_connections(self) -> None:
        """End every open connection and join its handler thread.  Only
        the read side is shut down: a handler waiting for the next
        request sees end-of-stream and exits; one inside a request still
        writes its reply, then sees the same."""
        with self._lock:
            open_now = list(self._open.items())
        for request, _ in open_now:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it first
        for _, thread in open_now:
            thread.join(timeout=JOIN_TIMEOUT_S)

    def stop(self) -> None:
        self.stop_accepting()
        self.close_connections()

    def __enter__(self) -> "HTTPFrontEnd":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
