"""Newline-delimited JSON protocol over TCP for the archival store.

Requests, one JSON object per line:

    {"op": "put",    "content": <string>, "token": <string>}
    {"op": "get",    "post_id": <string>, "token": <string>}
    {"op": "delete", "post_id": <string>, "token": <string>}

Every field is a JSON string; a get may leave out its token, which is then
"".  Responses (same framing):

    {"status": "ok", "post_id": <string>}        -- put
    {"status": "ok", "content": <string|null>}   -- get
    {"status": "ok"}                             -- delete
    {"status": "error", "code": "unauthorized"}  -- bad delete
    {"status": "error", "code": "bad_request"}   -- malformed input

The get-null response is produced by one code path for hidden, deleted and
nonexistent posts so the wire bytes are identical in all three cases.  A
request line longer than _MAX_LINE bytes (newline included) gets bad_request
and the connection is closed.  Any other hostile line (one that does not
parse, nests deeper than the parser recurses, names no known op, or has a
field that is not a string) gets bad_request on a connection that stays
open.  At most _MAX_CONNECTIONS connections are served at once; one over the
cap is closed at once without a reply.  The updater moves the schedule cursors of posts whose phase has
ended (see store.py), then checkpoints the log.  A pass or checkpoint that
raises is reported on stderr, and the updater runs again after its period.
"""

from __future__ import annotations

import json
import socketserver
import threading
import traceback

from .store import PostStore, UnauthorizedError

_UPDATER_PERIOD = 3600.0
_MAX_LINE = 1 << 20  # bytes per request line, newline included
_MAX_CONNECTIONS = 256  # concurrently served connections, one thread each


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


_BAD_REQUEST = _encode({"status": "error", "code": "bad_request"})
_UNAUTHORIZED = _encode({"status": "error", "code": "unauthorized"})


def _text(request: dict, field: str, default: str | None = None) -> str:
    """A field that must be a JSON string; TypeError when absent or not."""
    value = request.get(field, default)
    if not isinstance(value, str):
        raise TypeError(field)
    return value


def handle_request(store: PostStore, line: bytes) -> bytes:
    """Map one request line to one response line."""
    try:
        request = json.loads(line.decode("utf-8"))
        op = request["op"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError, RecursionError):
        return _BAD_REQUEST
    try:
        if op == "put":
            post_id = store.put(_text(request, "content"), _text(request, "token"))
            return _encode({"status": "ok", "post_id": post_id})
        if op == "get":
            content = store.get(_text(request, "post_id"), _text(request, "token", ""))
            return _encode({"status": "ok", "content": content})
        if op == "delete":
            try:
                store.delete(_text(request, "post_id"), _text(request, "token"))
            except UnauthorizedError:
                return _UNAUTHORIZED
            return _encode({"status": "ok"})
    except (KeyError, ValueError, TypeError):
        return _BAD_REQUEST
    return _BAD_REQUEST


class _Handler(socketserver.StreamRequestHandler):
    # one small write per response: without TCP_NODELAY, pipelined requests
    # stall on the peer's delayed ACK
    disable_nagle_algorithm = True

    def handle(self):
        while line := self.rfile.readline(_MAX_LINE + 1):
            if len(line) > _MAX_LINE:
                self.wfile.write(_BAD_REQUEST)
                return
            line = line.strip()
            if not line:
                continue
            self.wfile.write(handle_request(self.server.store, line))
            self.wfile.flush()


class StoreServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end plus the periodic cursor updater."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        store: PostStore,
        host: str = "127.0.0.1",
        port: int = 0,
        updater_period: float = _UPDATER_PERIOD,
    ):
        super().__init__((host, port), _Handler)
        self.store = store
        self._slots = threading.BoundedSemaphore(_MAX_CONNECTIONS)
        self._updater_period = updater_period
        self._stop = threading.Event()
        self._updater = threading.Thread(target=self._updater_loop, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address

    def verify_request(self, request, client_address):
        # socketserver closes a refused connection without a handler
        return self._slots.acquire(blocking=False)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def _updater_loop(self):
        while not self._stop.wait(self._updater_period):
            try:
                self.store.run_updater_pass()
                self.store.checkpoint()
            except Exception:
                # say an OSError from compaction: report it and retry next
                # period, rather than end the thread that `store serve` joins
                traceback.print_exc()

    def serve_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        self._updater.start()
        return thread

    def shutdown(self):
        self._stop.set()
        super().shutdown()
