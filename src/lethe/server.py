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
    {"status": "error", "code": "unavailable"}   -- the log write failed

The get-null response is one bytes object for hidden, deleted and
nonexistent posts, so the wire bytes are identical in all three cases.  A
request line longer than _MAX_LINE bytes (newline included) gets bad_request
and the connection is closed.  Any other hostile line (one that does not
parse, nests deeper than the parser recurses, names no known op, or has a
field that is not a string) gets bad_request on a connection that stays
open, as does unavailable for a put or delete whose log write failed: it
changed nothing, so it may be sent again.  An unterminated last line before
the client's EOF is answered.

One loop thread serves every connection and never blocks on a socket.  At
most _MAX_CONNECTIONS connections are served at once; one over the cap is
closed at once without a reply.  A reply the socket does not take at once
waits in its connection's outbox, and that connection is neither read nor
parsed until the outbox drains, so a client that does not read its replies
holds up only itself, and its buffered bytes stay bounded.  A request whose
handling raises is reported on stderr and closes only its own connection.

The loop also runs the store's updater pass and checkpoint (see store.py),
so one thread owns the store.  Each turn runs the pass after select returns
and before it serves any connection, whatever ids the requests name; an idle
loop needs no wake-up for it.  A pass that raises ends the loop, since the
cursors it popped would never move again.  A checkpoint runs inline one
updater period after the last one ended, so a compaction holds up every
connection; one that raises is reported on stderr.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
import traceback

from .store import PostStore, UnauthorizedError

_MAX_LINE = 1 << 20  # bytes per request line, newline included
_MAX_CONNECTIONS = 256  # concurrently served connections
_READ_SIZE = 1 << 16  # bytes taken from a socket per readable event
_MAX_WAIT = 86_400.0  # seconds per select call; epoll takes under 2**31 ms

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode(payload: dict) -> bytes:
    return (_ENCODER.encode(payload) + "\n").encode("utf-8")


_BAD_REQUEST = _encode({"status": "error", "code": "bad_request"})
_UNAUTHORIZED = _encode({"status": "error", "code": "unauthorized"})
_UNAVAILABLE = _encode({"status": "error", "code": "unavailable"})
_GET_NULL = _encode({"status": "ok", "content": None})
_DELETED = _encode({"status": "ok"})


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
            return _GET_NULL if content is None else _encode({"status": "ok", "content": content})
        if op == "delete":
            try:
                store.delete(_text(request, "post_id"), _text(request, "token"))
            except UnauthorizedError:
                return _UNAUTHORIZED
            return _DELETED
    except (KeyError, ValueError, TypeError):
        return _BAD_REQUEST
    except OSError:  # the store's log write: memory is unchanged
        return _UNAVAILABLE
    return _BAD_REQUEST


class _Connection:
    __slots__ = ("sock", "inbox", "outbox", "eof")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbox = b""  # received bytes not yet answered
        self.outbox = b""  # reply bytes the socket has not taken yet
        self.eof = False  # no more input is taken: the client's EOF or an over-long line

    def send(self, reply: bytes) -> None:
        """Send what the socket takes now; the rest waits in the outbox."""
        try:
            sent = self.sock.send(reply)
        except BlockingIOError:
            sent = 0
        self.outbox = reply[sent:]


class StoreServer:
    """TCP front end, cursor updater and periodic checkpoint on one selector
    loop thread."""

    def __init__(
        self,
        store: PostStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        updater_period: float,
    ):
        self.store = store
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._wake_reader, self._wake_writer = socket.socketpair()  # shutdown() wakes the loop
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        self._updater_period = updater_period
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._stopped.set()  # until serve_background starts the loop

    def serve_forever(self) -> None:
        """Serve every connection, run the updater pass each turn and
        checkpoint every updater period, from this thread until shutdown()."""
        due = time.monotonic() + self._updater_period
        try:
            while not self._stop.is_set():
                ready = self._selector.select(min(due - time.monotonic(), _MAX_WAIT))
                self.store.run_updater_pass()
                for key, _ in ready:
                    if key.data is not None:
                        self._serve(key)
                    elif key.fileobj is self._listener:
                        self._accept()
                if time.monotonic() >= due:
                    try:
                        self.store.checkpoint()  # the instance's, looked up per call
                    except Exception:  # say an OSError from compaction
                        traceback.print_exc()
                    due = time.monotonic() + self._updater_period
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    self._close(key.data)
            self._stopped.set()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # say the peer gave up first, or no file descriptor is left
            return
        if len(self._selector.get_map()) - 2 >= _MAX_CONNECTIONS:  # the listener, the wake reader
            sock.close()
            return
        sock.setblocking(False)
        # one small write per response: without TCP_NODELAY, pipelined
        # requests stall on the peer's delayed ACK
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _serve(self, key: selectors.SelectorKey) -> None:
        """Take one event of a connection: send its outbox if it has one,
        else read.  Then answer its complete lines in order while the outbox
        is empty, and wait for what it needs next: to write, to read, or
        nothing."""
        conn = key.data
        try:
            if conn.outbox:
                conn.send(conn.outbox)
            elif data := conn.sock.recv(_READ_SIZE):
                conn.inbox += data
            else:
                conn.eof = True
            inbox, pos = conn.inbox, 0
            while not conn.outbox:
                end = inbox.find(b"\n", pos) + 1
                if not end:
                    if len(inbox) - pos > _MAX_LINE or (conn.eof and pos < len(inbox)):
                        end = len(inbox)  # over-long so far, or the unterminated last line
                    else:
                        break
                line, pos = inbox[pos:end], end
                if len(line) > _MAX_LINE:
                    conn.send(_BAD_REQUEST)
                    conn.eof, pos = True, len(inbox)
                elif line := line.strip():
                    try:
                        # the module global, looked up per call: tracing wraps it
                        reply = handle_request(self.store, line)
                    except Exception:
                        traceback.print_exc()
                        self._close(conn)
                        return
                    conn.send(reply)
        except BlockingIOError:  # woken with nothing to read
            return
        except OSError:  # the client is gone
            self._close(conn)
            return
        conn.inbox = inbox[pos:]
        events = selectors.EVENT_WRITE if conn.outbox else selectors.EVENT_READ
        if conn.eof and not conn.outbox:
            self._close(conn)
        elif key.events != events:
            self._selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def serve_background(self) -> threading.Thread:
        self._stopped.clear()
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the loop; returns once it has stopped, with no pass or
        checkpoint under way."""
        self._stop.set()
        self._wake_writer.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        for closable in (self._selector, self._listener, self._wake_reader, self._wake_writer):
            closable.close()
