"""Black-box archival store suite: gating, uniform null, concurrency, recovery."""

import contextlib
import errno
import json
import os
import shutil
import socket
import struct
import threading
import time

import numpy as np
import pytest

import lethe.schedule
import lethe.server
import lethe.store
from lethe import cli
from lethe.distributions import make_distribution
from lethe.server import StoreServer, handle_request
from lethe.store import ManualClock, PostStore, UnauthorizedError

HOUR = 3600
DAY = 86400


def degenerate_mechanism():
    """9 h up / 1 h down point masses: phase boundaries are deterministic."""
    return (
        make_distribution("degenerate", 9 * HOUR),
        make_distribution("degenerate", HOUR),
    )


def tuned_mechanism():
    return (
        make_distribution("geometric", 9 * HOUR),
        make_distribution("negative-binomial", HOUR, shape=6e-4),
    )


def make_store(clock=None, data_dir=None, mechanism=None, seed=5):
    up, down = mechanism if mechanism is not None else degenerate_mechanism()
    return PostStore(up, down, seed=seed, data_dir=data_dir, clock=clock)


# ---------------------------------------------------------------------------
# basic API


def test_put_then_get_by_anyone():
    store = make_store(clock=ManualClock(0))
    post_id = store.put("hello world", "owner-token")
    assert store.get(post_id, "owner-token") == "hello world"
    assert store.get(post_id, "someone-else") == "hello world"  # initial up


def test_two_puts_distinct_ids():
    store = make_store(clock=ManualClock(0))
    assert store.put("a", "t") != store.put("b", "t")


def test_put_validation():
    store = make_store(clock=ManualClock(0))
    with pytest.raises(ValueError):
        store.put("", "token")
    with pytest.raises(ValueError):
        store.put("content", "")


def test_owner_bypass_during_down_phase():
    clock = ManualClock(0)
    store = make_store(clock=clock)
    post_id = store.put("secret", "owner")
    clock.set(9 * HOUR + 10)  # inside the first down phase
    assert store.get(post_id, "owner") == "secret"
    assert store.get(post_id, "viewer") is None
    clock.set(10 * HOUR + 10)  # back up
    assert store.get(post_id, "viewer") == "secret"


def test_delete_permanence():
    clock = ManualClock(0)
    store = make_store(clock=clock)
    post_id = store.put("gone soon", "owner")
    clock.advance(100)
    store.delete(post_id, "owner")
    for t in (101, HOUR, 10 * HOUR, 400 * DAY):
        clock.set(max(clock.now(), t))
        assert store.get(post_id, "owner") is None
        assert store.get(post_id, "viewer") is None


def test_delete_authorization():
    clock = ManualClock(0)
    store = make_store(clock=clock)
    post_id = store.put("content", "owner")
    with pytest.raises(UnauthorizedError):
        store.delete(post_id, "not-owner")
    assert store.get(post_id, "owner") == "content"  # unchanged
    store.delete(post_id, "owner")
    with pytest.raises(UnauthorizedError):
        store.delete(post_id, "owner")  # double delete == unauthorized
    with pytest.raises(UnauthorizedError):
        store.delete("unknown-id", "owner")


def test_reproducible_schedule_under_fixed_seed():
    a = make_store(clock=ManualClock(0), mechanism=tuned_mechanism(), seed=42)
    b = make_store(clock=ManualClock(0), mechanism=tuned_mechanism(), seed=42)
    pa = a.put("same", "tok")
    pb = b.put("same", "tok")
    assert pa == pb
    assert np.array_equal(a.record(pa).schedule.toggles, b.record(pb).schedule.toggles)


def test_non_ascii_tokens_compare_by_their_bytes():
    clock = ManualClock(0)
    store = make_store(clock=clock)
    owner = "clé-🔑-owner"
    post_id = store.put("content", owner)
    clock.set(9 * HOUR + 10)  # inside the first down phase
    assert store.get(post_id, owner) == "content"
    assert store.get(post_id, "clé-🔑-other") is None
    with pytest.raises(UnauthorizedError):
        store.delete(post_id, "clé-🔑-other")
    wrong = handle_request(
        store, json.dumps({"op": "delete", "post_id": post_id, "token": "ключ"}).encode()
    )
    assert wrong == b'{"status":"error","code":"unauthorized"}\n'
    store.delete(post_id, owner)
    assert store.get(post_id, owner) is None


def test_unencodable_token_gets_the_uniform_null():
    """A lone surrogate cannot be UTF-8 encoded; comparing it must not turn a
    hidden post's null into an error that an unknown post never gives."""
    clock = ManualClock(0)
    store = make_store(clock=clock)
    hidden = store.put("content", "owner")
    clock.set(9 * HOUR + 10)
    replies = {
        handle_request(store, b'{"op":"get","post_id":"%s","token":"\\ud800"}' % pid.encode())
        for pid in (hidden, "no-such-id")
    }
    assert replies == {b'{"status":"ok","content":null}\n'}


# ---------------------------------------------------------------------------
# uniform null on the wire


def test_wire_null_indistinguishable():
    clock = ManualClock(0)
    store = make_store(clock=clock)
    hidden_id = store.put("hidden content", "owner")
    deleted_id = store.put("deleted content", "owner")
    clock.advance(10)
    store.delete(deleted_id, "owner")
    clock.set(9 * HOUR + 5)  # hidden_id now in a down phase

    responses = {
        "hidden": handle_request(
            store, json.dumps({"op": "get", "post_id": hidden_id, "token": "x"}).encode()
        ),
        "deleted": handle_request(
            store, json.dumps({"op": "get", "post_id": deleted_id, "token": "x"}).encode()
        ),
        "nonexistent": handle_request(
            store, json.dumps({"op": "get", "post_id": "no-such-id", "token": "x"}).encode()
        ),
    }
    assert len(set(responses.values())) == 1
    assert responses["hidden"] == b'{"status":"ok","content":null}\n'


def test_wire_null_fuzz_over_random_interleavings():
    """Every null a non-owner ever sees is the same byte string, whatever
    mixture of puts, deletes and clock jumps produced it."""
    clock = ManualClock(0)
    store = make_store(clock=clock, mechanism=tuned_mechanism(), seed=21)
    r = np.random.default_rng(13)
    live = []
    nulls = set()
    probes = 0
    for _ in range(600):
        roll = r.random()
        if roll < 0.3 or not live:
            live.append(store.put(f"c{r.integers(1e9)}", "tok"))
        elif roll < 0.45:
            victim = live.pop(int(r.integers(len(live))))
            store.delete(victim, "tok")
        elif roll < 0.6:
            clock.advance(int(r.integers(1, 12 * HOUR)))
        else:
            target = (
                live[int(r.integers(len(live)))]
                if r.random() < 0.7
                else f"ghost{r.integers(1e9)}"
            )
            raw = handle_request(
                store,
                json.dumps({"op": "get", "post_id": target, "token": "stranger"}).encode(),
            )
            if b"null" in raw:
                nulls.add(raw)
                probes += 1
    assert probes > 50
    assert nulls == {b'{"status":"ok","content":null}\n'}


def test_wire_unauthorized_identical_for_wrong_token_and_gone():
    clock = ManualClock(0)
    store = make_store(clock=clock)
    post_id = store.put("c", "owner")
    clock.advance(5)
    wrong = handle_request(
        store, json.dumps({"op": "delete", "post_id": post_id, "token": "zz"}).encode()
    )
    handle_request(
        store, json.dumps({"op": "delete", "post_id": post_id, "token": "owner"}).encode()
    )
    again = handle_request(
        store, json.dumps({"op": "delete", "post_id": post_id, "token": "owner"}).encode()
    )
    unknown = handle_request(
        store, json.dumps({"op": "delete", "post_id": "nope", "token": "owner"}).encode()
    )
    assert wrong == again == unknown == b'{"status":"error","code":"unauthorized"}\n'


def test_every_id_class_gets_one_token_compare(monkeypatch):
    """A non-owner get and a wrong-token delete compare tokens once each on a
    hidden, a deleted and an unknown id, so no class skips the compare."""
    clock = ManualClock(0)
    store = make_store(clock=clock)
    hidden = store.put("hidden content", "owner")
    deleted = store.put("deleted content", "owner")
    clock.advance(10)
    store.delete(deleted, "owner")
    clock.set(9 * HOUR + 5)  # hidden is now in a down phase
    compares = []

    def counting(given, owner):
        compares.append(owner)
        return same_token(given, owner)

    same_token = lethe.store._same_token
    monkeypatch.setattr(lethe.store, "_same_token", counting)
    for post_id in (hidden, deleted, "no-such-id"):
        compares.clear()
        assert store.get(post_id, "stranger") is None
        assert len(compares) == 1, post_id
        with pytest.raises(UnauthorizedError):
            store.delete(post_id, "stranger")
        assert len(compares) == 2, post_id
    assert store.get(hidden, "owner") == "hidden content"


def test_absent_post_is_never_served_or_deleted():
    """Deleted and unknown ids share one absent post; sending its exact
    token neither reads it nor deletes it."""
    clock = ManualClock(0)
    store = make_store(clock=clock)
    deleted = store.put("deleted content", "owner")
    clock.advance(10)
    store.delete(deleted, "owner")
    token = lethe.store._ABSENT.token
    for post_id in (deleted, "no-such-id"):
        assert store.get(post_id, token) is None
        with pytest.raises(UnauthorizedError):
            store.delete(post_id, token)
    clock.advance(400 * DAY)
    assert store.get("no-such-id", token) is None
    assert store.get(deleted) is None
    assert store.post_count() == 0
    absent = lethe.store._ABSENT
    assert (absent.content, absent.up) == ("", False)


def test_wire_bad_requests():
    store = make_store(clock=ManualClock(0))
    assert b"bad_request" in handle_request(store, b"not json")
    assert b"bad_request" in handle_request(store, b'{"op":"frobnicate"}')
    assert b"bad_request" in handle_request(store, b'{"op":"put"}')
    for not_an_object in (b"[1,2]", b'"abc"', b"null", b"5"):
        assert b"bad_request" in handle_request(store, not_an_object)
    post_id = store.put("content", "owner")
    # every field must be a JSON string: str() would store the owner token
    # "None" for a null one, or serve the repr of an object as content
    for request in (
        {"op": "put", "content": {"a": 1}, "token": None},
        {"op": "put", "content": "c", "token": 5},
        {"op": "put", "content": ["c"], "token": "t"},
        {"op": "get", "post_id": 7, "token": "t"},
        {"op": "get", "post_id": post_id, "token": None},
        {"op": "delete", "post_id": post_id, "token": None},
        {"op": "delete", "post_id": [post_id], "token": "owner"},
    ):
        reply = handle_request(store, json.dumps(request).encode())
        assert reply == b'{"status":"error","code":"bad_request"}\n', request
    assert store.post_count() == 1


@contextlib.contextmanager
def serving(store, updater_period=10_000):
    """A started StoreServer on a free port, always shut down and closed."""
    server = StoreServer(store, port=0, updater_period=updater_period)
    server.serve_background()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def connect(address):
    """A client socket and its call: send one request, read one reply."""
    sock = socket.create_connection(address, timeout=10)
    fh = sock.makefile("rwb")

    def rpc(payload):
        fh.write(json.dumps(payload).encode() + b"\n")
        fh.flush()
        return json.loads(fh.readline())

    return sock, rpc


GET_UNKNOWN = json.dumps({"op": "get", "post_id": "x", "token": ""}).encode() + b"\n"
GET_NULL = b'{"status":"ok","content":null}\n'


def test_tcp_round_trip():
    store = make_store(clock=ManualClock(0))
    with serving(store) as server:
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            fh = sock.makefile("rwb")

            def rpc(payload):
                fh.write(json.dumps(payload).encode() + b"\n")
                fh.flush()
                return json.loads(fh.readline())

            put = rpc({"op": "put", "content": "over the wire", "token": "t1"})
            assert put["status"] == "ok"
            got = rpc({"op": "get", "post_id": put["post_id"], "token": ""})
            assert got == {"status": "ok", "content": "over the wire"}


def test_tcp_over_long_line_gets_bad_request_and_closes(monkeypatch):
    monkeypatch.setattr(lethe.server, "_MAX_LINE", 64)
    store = make_store(clock=ManualClock(0))
    with serving(store) as server:
        get = json.dumps({"op": "get", "post_id": "x", "token": ""}).encode()
        at_cap = get.ljust(63) + b"\n"  # 64 bytes, newline included
        with socket.create_connection(server.address, timeout=5) as sock:
            fh = sock.makefile("rb")
            sock.sendall(at_cap)
            assert json.loads(fh.readline()) == {"status": "ok", "content": None}
            sock.sendall(b" " + at_cap)
            assert json.loads(fh.readline()) == {"status": "error", "code": "bad_request"}
            assert fh.readline() == b""  # closed by the server
        with socket.create_connection(server.address, timeout=5) as sock:
            fh = sock.makefile("rb")
            sock.sendall(at_cap)
            assert json.loads(fh.readline()) == {"status": "ok", "content": None}


def test_tcp_deeply_nested_line_gets_bad_request_and_stays_open():
    store = make_store(clock=ManualClock(0))
    with serving(store) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            fh = sock.makefile("rb")
            sock.sendall(b"[" * 100_000 + b"\n")  # deeper than the parser recurses
            assert json.loads(fh.readline()) == {"status": "error", "code": "bad_request"}
            sock.sendall(json.dumps({"op": "get", "post_id": "x", "token": ""}).encode() + b"\n")
            assert json.loads(fh.readline()) == {"status": "ok", "content": None}


def test_tcp_connections_over_the_cap_are_closed_unanswered(monkeypatch):
    monkeypatch.setattr(lethe.server, "_MAX_CONNECTIONS", 2)
    store = make_store(clock=ManualClock(0))
    get = json.dumps({"op": "get", "post_id": "x", "token": ""}).encode() + b"\n"

    def served(sock):
        fh = sock.makefile("rb")
        sock.sendall(get)
        return fh.readline() != b""

    with serving(store) as server:
        with socket.create_connection(server.address, timeout=5) as first, \
                socket.create_connection(server.address, timeout=5) as second:
            assert served(first) and served(second)
            with socket.create_connection(server.address, timeout=5) as third:
                assert third.makefile("rb").readline() == b""  # EOF, no reply
            first.close()
            deadline = time.monotonic() + 5
            while True:  # retry a fresh connection until first's place is free
                fourth = socket.create_connection(server.address, timeout=5)
                try:
                    if served(fourth):
                        break
                except ConnectionError:  # closed over the cap with the get on its way
                    pass
                fourth.close()
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with fourth:
                assert served(fourth) and served(second)


def test_updater_survives_a_failed_checkpoint(capsys):
    store = make_store(clock=ManualClock(0))
    post_id = store.put("still served", "tok")
    passes = []
    second_pass = threading.Event()
    checkpoint = store.checkpoint

    def failing_once():
        passes.append(1)
        if len(passes) == 1:
            raise OSError("compaction fsync failed")
        checkpoint()
        second_pass.set()

    store.checkpoint = failing_once
    with serving(store, updater_period=0.01) as server:
        assert second_pass.wait(timeout=10)
        with socket.create_connection(server.address, timeout=5) as sock:
            fh = sock.makefile("rwb")
            get = {"op": "get", "post_id": post_id, "token": "tok"}
            fh.write(json.dumps(get).encode() + b"\n")
            fh.flush()
            assert json.loads(fh.readline()) == {"status": "ok", "content": "still served"}
    assert "OSError: compaction fsync failed" in capsys.readouterr().err


def test_shutdown_waits_for_a_checkpoint_under_way():
    store = make_store(clock=ManualClock(0))
    entered, done = threading.Event(), threading.Event()
    checkpoint = store.checkpoint

    def slow():
        entered.set()
        time.sleep(0.2)
        checkpoint()
        done.set()

    store.checkpoint = slow
    with serving(store, updater_period=0.01) as server:
        assert entered.wait(timeout=10)
        server.shutdown()
        assert done.is_set()  # so the caller may close the store now


def test_tcp_served_under_a_period_longer_than_one_select_may_wait():
    store = make_store(clock=ManualClock(0))
    with serving(store, updater_period=1e9) as server:  # epoll waits under 2**31 ms
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(GET_UNKNOWN)
            assert json.loads(sock.makefile("rb").readline()) == {"status": "ok", "content": None}


def test_server_checkpoints_while_it_answers_requests(monkeypatch):
    """A client that keeps the loop busy does not hold off the periodic
    checkpoint: checkpoints land between its requests."""
    store = make_store(clock=ManualClock(0))
    events = []
    checkpoint = store.checkpoint
    handle = lethe.server.handle_request

    def checkpoint_():
        events.append("checkpoint")
        checkpoint()

    def handled(store, line):
        events.append("request")
        return handle(store, line)

    store.checkpoint = checkpoint_
    monkeypatch.setattr(lethe.server, "handle_request", handled)
    with serving(store, updater_period=0.01) as server:
        sock, rpc = connect(server.address)
        deadline = time.monotonic() + 10
        with sock:
            while events.count("checkpoint") < 3:
                assert rpc({"op": "get", "post_id": "x", "token": ""}) == {
                    "status": "ok", "content": None,
                }
                assert time.monotonic() < deadline
    runs = "".join("c" if event == "checkpoint" else "r" for event in events)
    assert runs.count("rcr") >= 2, runs  # requests on both sides of a checkpoint


def test_no_get_redraws_for_the_id_it_names(monkeypatch):
    """After a long gap, the server's turn moves every due cursor before it
    answers, so a stranger's get on a hidden, a deleted or an unknown id
    draws no schedule block while it is handled: the work a get does does
    not depend on the id it names."""
    clock = ManualClock(0)
    store = make_store(clock=clock)  # 9 h up, 1 h down, from t = 0
    hidden = store.put("hidden", "owner")
    deleted = store.put("deleted", "owner")
    clock.advance(10)
    store.delete(deleted, "owner")
    kinds = {hidden: "hidden", deleted: "deleted", "no-such-id": "unknown"}
    handling, drawn = [None], []
    toggle_batches, handle = lethe.store.toggle_batches, lethe.server.handle_request

    def counted(up, down, posts):
        posts = list(posts)
        drawn.append((handling[0], len(posts)))
        return toggle_batches(up, down, posts)

    def handled(store, line):
        handling[0] = kinds[json.loads(line)["post_id"]]
        try:
            return handle(store, line)
        finally:
            handling[0] = None

    monkeypatch.setattr(lethe.store, "toggle_batches", counted)
    monkeypatch.setattr(lethe.server, "handle_request", handled)
    with serving(store) as server:
        sock, rpc = connect(server.address)
        with sock:
            for gap, post_id in enumerate(kinds, start=1):
                clock.set(gap * 400 * DAY + 9 * HOUR + 1800)  # inside a down phase
                assert rpc({"op": "get", "post_id": post_id, "token": "stranger"}) == {
                    "status": "ok", "content": None,
                }
    for kind in kinds.values():
        assert [n for where, n in drawn if where == kind] == [], kind
    # the loop's own passes moved the hidden post after every gap
    assert sum(n for where, n in drawn if where is None) >= 3


def test_tcp_pipelined_requests_answered_in_order():
    store = make_store(clock=ManualClock(0))
    with serving(store) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            fh = sock.makefile("rb")

            def pipeline(requests):
                sock.sendall(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
                return [json.loads(fh.readline()) for _ in requests]

            puts = pipeline(
                [{"op": "put", "content": f"post {i}", "token": "t"} for i in range(4)]
            )
            assert all(reply["status"] == "ok" for reply in puts)
            ids = [reply["post_id"] for reply in puts]
            gets = pipeline(
                [{"op": "get", "post_id": post_id, "token": ""} for post_id in ids]
                + [{"op": "get", "post_id": "no-such-id", "token": ""}, {"op": "nope"}]
            )
            assert gets == [{"status": "ok", "content": f"post {i}"} for i in range(4)] + [
                {"status": "ok", "content": None},
                {"status": "error", "code": "bad_request"},
            ]
            # with Nagle on, every pipeline after the first waits out the
            # client's delayed ACK (40 ms or more on Linux)
            elapsed = []
            for _ in range(10):
                started = time.perf_counter()
                pipeline([{"op": "get", "post_id": post_id} for post_id in ids])
                elapsed.append(time.perf_counter() - started)
            assert min(elapsed[1:]) < 0.02


def test_tcp_client_that_never_reads_does_not_delay_another():
    store = make_store(clock=ManualClock(0))
    content = "x" * (512 * 1024)
    post_id = store.put(content, "tok")
    get = json.dumps({"op": "get", "post_id": post_id, "token": ""}).encode() + b"\n"
    with serving(store) as server:
        with socket.create_connection(server.address, timeout=5) as hog, \
                socket.create_connection(server.address, timeout=5) as other:
            # 64 MiB of replies: more than both sockets' buffers hold
            hog.sendall(get * 128)
            fh = other.makefile("rb")
            started = time.monotonic()
            for _ in range(3):
                other.sendall(GET_UNKNOWN)
                assert json.loads(fh.readline()) == {"status": "ok", "content": None}
            assert time.monotonic() - started < 2
            hog_fh = hog.makefile("rb")  # the stalled replies then arrive in full
            for _ in range(128):
                assert json.loads(hog_fh.readline()) == {"status": "ok", "content": content}


def test_tcp_client_reset_with_replies_pending_frees_its_place(monkeypatch):
    """A client that resets its socket while replies wait in its outbox is
    closed, so the one connection the cap allows goes to the next client."""
    monkeypatch.setattr(lethe.server, "_MAX_CONNECTIONS", 1)
    store = make_store(clock=ManualClock(0))
    post_id = store.put("x" * (512 * 1024), "tok")
    get = json.dumps({"op": "get", "post_id": post_id, "token": ""}).encode() + b"\n"
    with serving(store) as server:
        gone = socket.create_connection(server.address, timeout=5)
        gone.sendall(get * 128)  # 64 MiB of replies, none read
        time.sleep(0.2)  # the first replies fill both sockets' buffers
        gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        gone.close()  # a reset, not a FIN
        deadline = time.monotonic() + 5
        while True:  # a fresh connection is closed unanswered until the place is free
            with socket.create_connection(server.address, timeout=5) as fresh:
                try:
                    fresh.sendall(GET_UNKNOWN)
                    if fresh.makefile("rb").readline() == GET_NULL:
                        break
                except ConnectionError:  # closed over the cap with the get on its way
                    pass
            assert time.monotonic() < deadline
            time.sleep(0.01)


def test_tcp_request_that_raises_closes_only_its_connection(monkeypatch, capsys):
    handle = lethe.server.handle_request

    def raising(store, line):
        if line == b"boom":
            raise RuntimeError("handler failed")
        return handle(store, line)

    monkeypatch.setattr(lethe.server, "handle_request", raising)
    store = make_store(clock=ManualClock(0))
    with serving(store) as server:
        with socket.create_connection(server.address, timeout=5) as failing, \
                socket.create_connection(server.address, timeout=5) as other:
            other_fh = other.makefile("rb")
            other.sendall(GET_UNKNOWN)
            assert json.loads(other_fh.readline()) == {"status": "ok", "content": None}
            failing.sendall(b"boom\n")
            assert failing.makefile("rb").readline() == b""  # closed, no reply
            other.sendall(GET_UNKNOWN)
            assert json.loads(other_fh.readline()) == {"status": "ok", "content": None}
            with socket.create_connection(server.address, timeout=5) as fresh:
                fresh.sendall(GET_UNKNOWN)
                assert json.loads(fresh.makefile("rb").readline()) == {
                    "status": "ok", "content": None,
                }
    assert "RuntimeError: handler failed" in capsys.readouterr().err


def test_tcp_unterminated_last_line_is_answered_before_close():
    store = make_store(clock=ManualClock(0))
    with serving(store) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            fh = sock.makefile("rb")
            sock.sendall(GET_UNKNOWN.rstrip(b"\n"))
            sock.shutdown(socket.SHUT_WR)
            assert json.loads(fh.readline()) == {"status": "ok", "content": None}
            assert fh.readline() == b""


# ---------------------------------------------------------------------------
# lazy updater


def test_put_draws_nothing_and_a_pass_draws_it_once_its_first_phase_ends(monkeypatch):
    clock = ManualClock(0)
    store = make_store(clock=clock, mechanism=tuned_mechanism())
    drawn = []
    toggle_batches = lethe.store.toggle_batches

    def counted(up, down, posts):
        posts = list(posts)
        drawn.append(len(posts))
        return toggle_batches(up, down, posts)

    monkeypatch.setattr(lethe.store, "toggle_batches", counted)
    post_id = store.put("fresh", "tok")
    assert drawn == []
    first = int(store.record(post_id).schedule.toggles[0])  # created at 0
    assert store._ends == [(first, post_id)]
    assert store.get(post_id, "tok") == "fresh"  # the owner's get draws nothing either
    for t in (0, first // 2, first - 1):  # its first up phase
        clock.set(t)
        assert store.run_updater_pass() == 0
        assert store.get(post_id, "stranger") == "fresh"
    assert drawn == []
    clock.set(first)
    assert store.run_updater_pass() == 1
    assert drawn == [1]
    assert store.run_updater_pass() == 0
    assert store.get(post_id, "stranger") is None  # its first down phase
    assert drawn == [1]


@pytest.mark.parametrize(
    "up",
    [
        make_distribution("geometric", 9 * HOUR),  # inverted exponentials
        make_distribution("geometric", 2.0),  # p = 1/2: numpy's search
        make_distribution("discrete-uniform", 9 * HOUR),  # the law's sampler
    ],
    ids=["geometric", "geometric-search", "uniform"],
)
def test_put_sets_the_drawn_schedules_first_toggle_as_its_end(up):
    """For each up law's draw path, the heap end a put sets is the first
    toggle of the schedule drawn in full, and a stranger's get around it
    serves that schedule's state."""
    down = make_distribution("negative-binomial", HOUR, shape=6e-4)
    for i in range(6):
        clock = ManualClock(1000 * i)
        store = PostStore(up, down, seed=i, clock=clock)
        post_id = store.put("post", "tok")
        schedule = store.record(post_id).schedule
        first = int(schedule.toggles[0])
        assert store._ends == [(first, post_id)]
        for t in (first - 1, first, first + 1):
            clock.set(t)
            served = store.get(post_id, "stranger")
            assert served == ("post" if schedule.state_at(t) else None), (i, t)


def test_updater_pass_extends_aged_posts_prefix_stably():
    clock = ManualClock(0)
    store = make_store(clock=clock, mechanism=tuned_mechanism())
    post_id = store.put("aging", "tok")
    before = store.record(post_id).schedule
    probes = np.linspace(0, before.covered_until, 300).astype(int)
    answers_before = [before.state_at(int(t)) for t in probes]

    clock.set(180 * DAY)  # six months on: coverage dips below one year ahead
    assert store.run_updater_pass() == 1
    after = store.record(post_id).schedule
    assert after.covered_until >= clock.now() + 365 * DAY
    assert np.array_equal(after.toggles[: len(before.toggles)], before.toggles)
    assert [after.state_at(int(t)) for t in probes] == answers_before


def test_updater_pass_skips_deleted():
    clock = ManualClock(0)
    store = make_store(clock=clock, mechanism=tuned_mechanism())
    keep = store.put("keep", "tok")
    drop = store.put("drop", "tok")
    clock.advance(50)
    store.delete(drop, "tok")
    clock.set(300 * DAY)
    assert store.run_updater_pass() == 1  # only the live post
    assert store.run_updater_pass() == 0  # the deleted id's pair went with the first pass
    assert store.record(keep).schedule.covered_until >= 300 * DAY + 365 * DAY


@pytest.mark.parametrize(
    "steps", [(1, 2 * HOUR), (DAY, 120 * DAY)], ids=["short-steps", "long-steps"]
)
def test_get_serves_the_schedule_state(tmp_path, steps):
    """A stranger's get returns content exactly while the post's full
    schedule is up, whether its cursor moves by one phase or by many blocks,
    through gets, updater passes and a reopen from the log."""
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    ids = [store.put(f"post {i}", "tok") for i in range(20)]
    r = np.random.default_rng(17)
    served = []
    for step in range(1, 401):
        clock.advance(int(r.integers(*steps, endpoint=True)))
        if step == 200:
            store.close()
            store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
        if step % 50 == 0:
            store.run_updater_pass()
        for i in r.permutation(len(ids)).tolist():
            served.append((i, clock.now(), store.get(ids[i], "stranger")))
    # one full schedule per post, drawn past every probe, judges them all
    schedules = [store.record(post_id).schedule for post_id in ids]
    hidden = 0
    for i, t, content in served:
        up = schedules[i].state_at(t)
        assert content == (f"post {i}" if up else None), (i, t)
        hidden += not up
    assert hidden >= 20
    store.close()


# ---------------------------------------------------------------------------
# persistence


def test_compaction_erases_deleted_content_from_disk(tmp_path):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    kept = store.put("kept content", "tok")
    gone = store.put("sensitive gone content", "tok")
    clock.advance(100)
    store.delete(gone, "tok")
    log = (tmp_path / "store.log").read_text()
    assert "sensitive gone content" in log  # raw log still carries it
    store.compact()
    log = (tmp_path / "store.log").read_text()
    assert "sensitive gone content" not in log
    assert gone not in log  # nor the deleted id
    assert "kept content" in log
    kept_toggles = store.record(kept).schedule.toggles
    store.close()

    recovered = make_store(data_dir=tmp_path, mechanism=tuned_mechanism())
    assert recovered.get(kept, "tok") == "kept content"
    assert recovered.get(gone, "tok") is None
    with pytest.raises(KeyError):
        recovered.record(gone)
    assert np.array_equal(recovered.record(kept).schedule.toggles, kept_toggles)
    recovered.close()


def _assert_prefix_equal(a, b):
    """Of two toggle arrays, the shorter is a prefix of the longer."""
    shorter = min(len(a), len(b))
    assert np.array_equal(a[:shorter], b[:shorter])


def test_log_replay_rebuilds_identical_state(tmp_path):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    kept = store.put("kept content", "tok")
    gone = store.put("gone content", "tok")
    clock.advance(100)
    store.delete(gone, "tok")
    clock.set(200 * DAY)
    store.run_updater_pass()
    kept_schedule = store.record(kept).schedule
    store.close()

    later = ManualClock(300 * DAY)
    recovered = make_store(clock=later, data_dir=tmp_path, mechanism=tuned_mechanism())
    assert recovered.get(kept, "tok") == "kept content"
    assert recovered.record(kept).owner_token == "tok"
    assert recovered.get(gone, "tok") is None
    with pytest.raises(KeyError):  # a deleted post is not replayed at all
        recovered.record(gone)
    assert recovered.post_count() == 1
    rec_schedule = recovered.record(kept).schedule
    _assert_prefix_equal(rec_schedule.toggles, kept_schedule.toggles)
    assert rec_schedule.covered_until >= later.now() + 365 * DAY
    recovered.close()


def test_compaction_writes_one_put_per_live_post(tmp_path):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    kept = store.put("kept content", "tok")
    gone = store.put("gone content", "tok")
    clock.advance(100)
    store.delete(gone, "tok")
    for day in (100, 200, 400, 700):
        clock.set(day * DAY)
        assert store.run_updater_pass() == 1
    schedule = store.record(kept).schedule
    store.compact()
    store.close()

    log = (tmp_path / "store.log").read_text()
    assert '"extend"' not in log
    assert log.count('"put"') == 1
    assert gone not in log
    recovered = make_store(data_dir=tmp_path, mechanism=tuned_mechanism())
    rec_schedule = recovered.record(kept).schedule
    assert np.array_equal(rec_schedule.toggles, schedule.toggles)
    assert rec_schedule.covered_until == schedule.covered_until
    assert rec_schedule.key == schedule.key
    assert recovered.post_count() == 1
    recovered.close()


def _store_state(store, post_ids):
    """Each live post's logged facts and toggles; deleted posts are gone."""
    facts, toggles = {}, {}
    for post_id in post_ids:
        try:
            record = store.record(post_id)
        except KeyError:
            continue
        facts[post_id] = (record.owner_token, record.content, record.created_at)
        toggles[post_id] = record.schedule.toggles
    return facts, toggles


def _assert_same_state(state, expected):
    """Facts equal exactly; live schedules equal up to the shorter coverage."""
    assert state[0] == expected[0]
    assert state[1].keys() == expected[1].keys()
    for post_id, toggles in state[1].items():
        _assert_prefix_equal(toggles, expected[1][post_id])


@pytest.mark.parametrize("last_op", ["put", "delete"])
def test_torn_final_log_record_recovers_before_or_after(tmp_path, last_op):
    """Cut the log at every byte of its final record: replay recovers the
    state before that operation, or after it once the record is whole, and
    later appends stay intact."""
    clock = ManualClock(0)
    live = tmp_path / "live"
    store = make_store(clock=clock, data_dir=live, mechanism=tuned_mechanism())
    ids = [store.put("first", "tok"), store.put("second", "tok")]
    clock.advance(50)
    store.delete(ids[0], "tok")
    clock.set(200 * DAY)
    store.run_updater_pass()
    before_log = (live / "store.log").read_bytes()
    before = _store_state(store, ids)
    clock.advance(10)
    if last_op == "put":
        ids.append(store.put("third", "tok"))
    else:
        store.delete(ids[1], "tok")
    after = _store_state(store, ids)
    assert after[0] != before[0]
    after_log = (live / "store.log").read_bytes()  # before close() logs its clock line
    store.close()
    assert after_log.startswith(before_log) and len(after_log) > len(before_log)

    for cut in range(len(before_log), len(after_log) + 1):
        data_dir = tmp_path / f"cut{cut}"
        data_dir.mkdir()
        (data_dir / "store.log").write_bytes(after_log[:cut])
        recovered = make_store(
            clock=ManualClock(600 * DAY), data_dir=data_dir, mechanism=tuned_mechanism()
        )
        state = _store_state(recovered, ids)
        _assert_same_state(state, after if cut == len(after_log) else before)
        extra = recovered.put("after recovery", "tok")
        state = _store_state(recovered, ids + [extra])
        recovered.close()
        reopened = make_store(data_dir=data_dir, mechanism=tuned_mechanism())
        _assert_same_state(_store_state(reopened, ids + [extra]), state)
        reopened.close()


class _FailingLog:
    """The store's log file object, whose writes fail as on a full disk:
    each raises ENOSPC, or takes only half the line."""

    def __init__(self, fh, failure):
        self.fh, self.failure = fh, failure

    def write(self, data):
        if self.failure == "raise":
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data[: len(data) // 2])

    def __getattr__(self, name):
        return getattr(self.fh, name)


@pytest.mark.parametrize("failure", ["raise", "short"])
@pytest.mark.parametrize("op", ["put", "delete"])
def test_failed_log_write_takes_no_effect(tmp_path, op, failure):
    """A put or delete whose log line does not reach the file changes
    nothing in memory either: memory and a reopen agree, and a retry
    succeeds as if the failure had not happened."""
    clock = ManualClock(0)
    live = tmp_path / "live"
    store = make_store(clock=clock, data_dir=live, mechanism=tuned_mechanism())
    kept = store.put("kept", "tok")
    clock.advance(10)
    log = (live / "store.log").read_bytes()
    store._log_fh = _FailingLog(store._log_fh, failure)

    def attempt():
        return store.put("new", "tok") if op == "put" else store.delete(kept, "tok")

    fresh = make_store(clock=ManualClock(0))
    new_id = [fresh.put("any", "t") for _ in range(2)][1]  # the id a put issues next
    with pytest.raises(OSError):
        attempt()
    assert (live / "store.log").read_bytes() == log  # no byte of the line stays
    assert store.get(kept, "tok") == "kept"
    assert store.post_count() == 1
    copy = tmp_path / "copy"  # memory and a reopen of the log agree on every id
    copy.mkdir()
    shutil.copy(live / "store.log", copy / "store.log")
    reopened = make_store(clock=clock, data_dir=copy, mechanism=tuned_mechanism())
    assert reopened.post_count() == store.post_count()
    for post_id in (kept, new_id):
        assert reopened.get(post_id, "tok") == store.get(post_id, "tok")
    reopened.close()
    store._log_fh = store._log_fh.fh
    assert attempt() == (new_id if op == "put" else None)  # the retry succeeds
    store.close()
    expected = {"put": ("kept", "new"), "delete": (None, None)}[op]
    reopened = make_store(clock=clock, data_dir=live, mechanism=tuned_mechanism())
    assert (reopened.get(kept, "tok"), reopened.get(new_id, "tok")) == expected
    reopened.close()


@pytest.mark.parametrize("failure", ["raise", "short"])
def test_close_raises_a_failed_clock_line_and_still_closes(tmp_path, failure):
    store = make_store(clock=ManualClock(0), data_dir=tmp_path)
    store.put("kept", "tok")
    log = (tmp_path / "store.log").read_bytes()
    fh = store._log_fh
    store._log_fh = _FailingLog(fh, failure)
    with pytest.raises(OSError):
        store.close()
    assert fh.closed and store._log_fh is None
    assert (tmp_path / "store.log").read_bytes() == log  # no byte of the line stays


@pytest.mark.parametrize("op", ["put", "delete"])
def test_failed_log_write_is_answered_unavailable(tmp_path, capsys, op):
    """Over TCP, a put or delete whose log write raises ENOSPC gets the
    unavailable reply on a connection that stays open, and the same request
    succeeds on it once the fault clears."""
    store = make_store(clock=ManualClock(0), data_dir=tmp_path, mechanism=tuned_mechanism())
    kept = store.put("kept", "tok")
    log = store._log_fh
    request = {"op": "put", "content": "new", "token": "tok"}
    if op == "delete":
        request = {"op": "delete", "post_id": kept, "token": "tok"}
    line = json.dumps(request).encode() + b"\n"
    with serving(store) as server, socket.create_connection(server.address, timeout=10) as sock:
        fh = sock.makefile("rwb")
        store._log_fh = _FailingLog(log, "raise")  # the loop waits in select: no request is open
        fh.write(line)
        fh.flush()
        assert fh.readline() == b'{"status":"error","code":"unavailable"}\n'
        fh.write(json.dumps({"op": "get", "post_id": kept, "token": "tok"}).encode() + b"\n")
        fh.flush()
        assert json.loads(fh.readline()) == {"status": "ok", "content": "kept"}
        store._log_fh = log
        fh.write(line)
        fh.flush()
        reply = json.loads(fh.readline())
    assert reply["status"] == "ok" and store.post_count() == {"put": 2, "delete": 0}[op]
    assert "Traceback" not in capsys.readouterr().err
    store.close()


def test_corrupt_complete_log_line_is_fatal(tmp_path, capsys):
    store = make_store(clock=ManualClock(0), data_dir=tmp_path)
    store.put("a", "tok")
    store.put("b", "tok")
    store.close()
    lines = (tmp_path / "store.log").read_bytes().split(b"\n")
    lines[0] = lines[0][:-5]
    (tmp_path / "store.log").write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError):
        make_store(data_dir=tmp_path)
    # complete lines that parse but are no event, after one good put
    put = '{"op":"put","post_id":"a","token":"tok","content":"c","t":0}'
    for i, line in enumerate(
        [
            '{"op":"put","post_id":"b","content":"c","t":1}',  # no token
            '{"op":"put","post_id":"b","token":null,"content":"c","t":1}',
            '{"op":"delete","t":5}',  # no post_id
            '{"op":"clock"}',  # no t
            "[1]",
            '{"op":"bogus","t":5}',
            '{"op":"put","post_id":"a","token":"evil","content":"c","t":1}',  # a is live
            '{"op":"tombstone","post_id":"a","t":5}',  # replay takes put, delete, clock
            '{"op":"extend","post_id":"a","t":5,"horizon":100}',
            '{"op":"clock","t":1e400}',  # inf
            '{"op":"put","post_id":"b","token":"tok","content":"c","t":1,"n":1e400}',
            # counts and times past what ids and int64 toggles hold
            '{"op":"clock","t":0,"n":1e30}',
            f'{{"op":"clock","t":0,"n":{2**64 - 1}}}',
            '{"op":"clock","t":0,"n":-1}',
            '{"op":"clock","t":1e30}',
            f'{{"op":"clock","t":{2**62}}}',
            '{"op":"put","post_id":"b","token":"tok","content":"c","t":-1}',
            # times and id counts are JSON integers
            '{"op":"clock","t":"5"}',
            '{"op":"clock","t":true}',
            '{"op":"clock","t":1.9}',
            '{"op":"clock","t":0,"n":"3"}',
            '{"op":"clock","t":0,"n":false}',
            '{"op":"clock","t":0,"n":2.0}',
        ]
    ):
        data_dir = tmp_path / f"malformed{i}"
        data_dir.mkdir()
        (data_dir / "store.log").write_text(put + "\n" + line + "\n")
        with pytest.raises(ValueError, match="line 2 "):
            make_store(data_dir=data_dir)
        # `store serve` reports it as an error, not a traceback
        assert cli.dispatch(["store", "serve", "--data-dir", str(data_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_replay_accepts_the_largest_count_and_time(tmp_path):
    # replay takes n < 2**64 - 1 and t < 2**62: the largest of each put and
    # reopen, and a put one past either is refused before its line is written
    for past, data_dir, first in (("n", tmp_path / "n", 2**64 - 3), ("t", tmp_path / "t", 0)):
        log = data_dir / "store.log"
        data_dir.mkdir()
        log.write_text(f'{{"op":"clock","t":0,"n":{first}}}\n')
        clock = ManualClock(2**62 - 1)
        store = make_store(clock=clock, data_dir=data_dir)
        post_id = store.put("last", "tok")
        put = json.loads(log.read_text().splitlines()[-1])
        assert put["n"] == first + 1 and put["t"] == 2**62 - 1
        if past == "t":
            clock.set(2**62)
        written = log.read_bytes()
        with pytest.raises(OSError):
            store.put("one past", "tok")
        # the server answers as for a failed write
        request = b'{"op":"put","content":"c","token":"tok"}'
        assert handle_request(store, request) == b'{"status":"error","code":"unavailable"}\n'
        assert log.read_bytes() == written and store.post_count() == 1, past
        if past == "t":  # nor can a compaction's or the closing clock line
            with pytest.raises(OSError):
                store.compact()
            assert not (data_dir / "store.tmp").exists()
            with pytest.raises(OSError):
                store.close()
        else:
            store.close()
        store = make_store(clock=ManualClock(2**62 - 1), data_dir=data_dir)
        assert store.post_count() == 1 and store.get(post_id, "tok") == "last", past
        store.close()


@pytest.mark.parametrize(
    "lines",
    [
        ['{"op":"delete","post_id":"a","t":5}'],
        [
            '{"op":"put","post_id":"a","token":"tok","content":"c","t":0}',
            '{"op":"delete","post_id":"a","t":5}',
            '{"op":"delete","post_id":"a","t":6}',
        ],
    ],
    ids=["no-put", "second-delete"],
)
def test_delete_without_live_put_is_fatal(tmp_path, lines):
    (tmp_path / "store.log").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        make_store(data_dir=tmp_path)


def _busy_store(clock, data_dir):
    """Every kind of operation, on a store whose schedules need extending."""
    store = make_store(clock=clock, data_dir=data_dir, mechanism=tuned_mechanism())
    ids = [store.put(f"post {i}", "tok") for i in range(4)]
    for day in (100, 250, 400, 800):
        clock.set(day * DAY)
        store.get(ids[1], "stranger")
        store.get(ids[2], "tok")
        store.run_updater_pass()
        ids.append(store.put(f"post at day {day}", "tok"))
    store.delete(ids[3], "tok")
    store.compact()
    clock.advance(HOUR)
    store.delete(ids[2], "tok")
    ids.append(store.put("after compaction", "tok"))
    clock.set(1200 * DAY)
    store.run_updater_pass()
    store.get(ids[0], "stranger")
    return store, ids


def test_log_holds_only_facts(tmp_path):
    store, ids = _busy_store(ManualClock(0), tmp_path)
    store.close()
    events = [json.loads(line) for line in (tmp_path / "store.log").read_text().splitlines()]
    assert {event["op"] for event in events} == {"put", "delete", "clock"}
    assert not any("horizon" in event for event in events)
    # each put line names its id's counter, and the compaction's clock line
    # the count issued by then
    appended = [event["n"] for event in events if event["op"] == "put" and "n" in event]
    (compaction_clock,) = [event for event in events if "n" in event and event["op"] == "clock"]
    assert appended == list(range(compaction_clock["n"] + 1, len(ids) + 1))


def test_log_lines_are_pinned_byte_for_byte(tmp_path):
    """Put, clock and delete lines as appended, then a compacted log: one put
    line without n per live post and a clock line with the count issued."""
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path)
    log = tmp_path / "store.log"
    kept = store.put("c", "tok")
    clock.advance(5)
    store.checkpoint()
    gone = store.put("\u00e9\n", "tok")
    clock.advance(5)
    store.delete(gone, "tok")
    assert log.read_bytes() == (
        f'{{"op":"put","post_id":"{kept}","token":"tok","content":"c","t":0,"n":1}}\n'
        '{"op":"clock","t":5}\n'
        f'{{"op":"put","post_id":"{gone}","token":"tok","content":"\\u00e9\\n","t":5,"n":2}}\n'
        f'{{"op":"delete","post_id":"{gone}","t":10}}\n'
    ).encode()
    store.checkpoint()  # a delete landed since the last compaction
    assert log.read_bytes() == (
        f'{{"op":"put","post_id":"{kept}","token":"tok","content":"c","t":0}}\n'
        '{"op":"clock","t":10,"n":2}\n'
    ).encode()
    compacted = log.read_bytes()
    clock.advance(5)
    store.close()  # a graceful stop logs the store's time
    assert log.read_bytes() == compacted + b'{"op":"clock","t":15}\n'


def test_closed_store_reopens_past_its_last_time(tmp_path):
    """A store closed long after its last write reopens under the default
    clock at or past the time it closed, not just past that write."""
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path)
    post_id = store.put("kept", "tok")
    clock.set(3000)
    store.close()
    reopened = make_store(data_dir=tmp_path)
    assert reopened._clock.now() >= 3000
    assert reopened.get(post_id, "tok") == "kept"
    reopened.close()


def test_reopened_store_has_the_live_stores_cursors(tmp_path):
    """Replay and the updater pass derive the same key for a post, so a store
    reopened from its log holds every live post's cursor and heap end."""
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    r = np.random.default_rng(23)
    ids = []
    for _ in range(60):  # about two years
        clock.advance(int(r.integers(1, 24 * DAY)))
        ids.append(store.put("post", "tok"))
        if len(ids) > 3 and r.random() < 0.4:
            store.delete(ids.pop(int(r.integers(len(ids)))), "tok")
        store.run_updater_pass()
    clock.advance(DAY)
    store.run_updater_pass()
    # puts an hour or less apart, the last at the final clock time after the
    # last pass: some are still in their first up phase, whose end put set
    for _ in range(3):
        clock.advance(int(r.integers(1, HOUR)))
        store.run_updater_pass()
        ids.append(store.put("late post", "tok"))
    first_phase = {post_id for end, post_id in store._ends
                   if post_id in ids[-3:] and end > clock.now()}
    assert ids[-1] in first_phase

    def cursors(s):
        posts = {post_id: (p.block, p.start, p.up) for post_id, p in s._posts.items()}
        return posts, sorted(pair for pair in s._ends if pair[1] in s._posts)

    live = cursors(store)
    store.close()
    reopened = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    assert cursors(reopened) == live
    assert len(live[1]) == len(ids) and any(block > 1 for block, _, _ in live[0].values())
    assert all(live[0][post_id][::2] == (0, True) for post_id in first_phase)
    reopened.close()


@pytest.mark.parametrize("reopen_at", [None, 2000 * DAY])
def test_reopened_store_updater_pass_extends_nothing(tmp_path, reopen_at):
    """Replay draws every live post to the coverage the updater asks for."""
    store, ids = _busy_store(ManualClock(0), tmp_path)
    state = _store_state(store, ids)
    store.close()
    clock = ManualClock(reopen_at) if reopen_at is not None else None
    recovered = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    _assert_same_state(_store_state(recovered, ids), state)
    assert recovered.run_updater_pass() == 0
    recovered.close()


def test_get_that_extends_coverage_writes_nothing(tmp_path):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    post_id = store.put("read me later", "tok")
    covered = store.record(post_id).schedule.covered_until
    log = (tmp_path / "store.log").read_bytes()
    clock.set(covered - 365 * DAY + 1)  # inside the coverage margin
    store.get(post_id, "stranger")
    assert store.record(post_id).schedule.covered_until > covered
    assert (tmp_path / "store.log").read_bytes() == log
    store.close()


def _record_fields(record):
    schedule = record.schedule
    return (
        record.post_id,
        record.owner_token,
        record.content,
        schedule.created_at,
        schedule.toggles.tolist(),
        schedule.covered_until,
        schedule.key,
    )


def test_uncompacted_delete_replays_as_its_compaction(tmp_path):
    clock = ManualClock(0)
    raw, compacted = tmp_path / "raw", tmp_path / "compacted"
    store = make_store(clock=clock, data_dir=raw, mechanism=tuned_mechanism())
    kept = store.put("kept content", "tok")
    gone = store.put("gone content", "tok")
    clock.advance(100)
    store.delete(gone, "tok")
    store.close()
    compacted.mkdir()
    (compacted / "store.log").write_bytes((raw / "store.log").read_bytes())
    compactor = make_store(data_dir=compacted, mechanism=tuned_mechanism())
    compactor.compact()
    compactor.close()

    from_raw = make_store(clock=ManualClock(DAY), data_dir=raw, mechanism=tuned_mechanism())
    from_compacted = make_store(
        clock=ManualClock(DAY), data_dir=compacted, mechanism=tuned_mechanism()
    )
    assert _record_fields(from_raw.record(kept)) == _record_fields(
        from_compacted.record(kept)
    )
    for recovered in (from_raw, from_compacted):
        assert recovered.post_count() == 1
        with pytest.raises(KeyError):
            recovered.record(gone)
    assert from_raw.put("next", "tok") == from_compacted.put("next", "tok")
    from_raw.close()
    from_compacted.close()


def test_replaying_deleted_posts_draws_no_schedule_stream(tmp_path, monkeypatch):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    ids = [store.put(f"post {i}", "tok") for i in range(3)]
    live_key = store.record(store.put("kept", "tok")).schedule.key
    clock.advance(10)
    for post_id in ids:
        store.delete(post_id, "tok")
    store.close()

    drawn = []
    block_generator = lethe.schedule._block_generator

    def counted(key, block):
        drawn.append(key)
        return block_generator(key, block)

    # every schedule draw, whatever its entry point, resets one block's generator
    monkeypatch.setattr(lethe.schedule, "_block_generator", counted)
    for _ in range(2):  # the raw log, then its compaction
        drawn.clear()
        recovered = make_store(data_dir=tmp_path, mechanism=tuned_mechanism())
        # blocks are drawn for the live post only, none for a deleted one
        assert drawn and set(drawn) == {live_key}
        assert recovered.post_count() == 1
        recovered.compact()
        recovered.close()


def test_checkpoint_without_delete_appends_a_clock_line(tmp_path):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    kept = store.put("kept content", "tok")
    log = tmp_path / "store.log"
    before, inode = log.read_bytes(), log.stat().st_ino
    clock.set(5000)
    store.checkpoint()
    assert log.stat().st_ino == inode  # appended to, not rewritten
    assert log.read_bytes() == before + b'{"op":"clock","t":5000}\n'
    store.close()

    recovered = make_store(data_dir=tmp_path, mechanism=tuned_mechanism())
    assert recovered.get(kept, "tok") == "kept content"
    later = recovered.put("after reopen", "tok")
    assert recovered.record(later).created_at > 5000  # resumed past the clock line
    recovered.close()


@pytest.mark.parametrize("reopen", [False, True])
def test_checkpoint_compacts_once_after_a_delete(tmp_path, reopen):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    store.put("kept content", "tok")
    gone = store.put("sensitive gone content", "tok")
    clock.advance(100)
    store.delete(gone, "tok")
    if reopen:  # the raw delete line must still lead to a compaction
        store.close()
        store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    log = tmp_path / "store.log"
    assert b"sensitive gone content" in log.read_bytes()
    store.checkpoint()
    compacted = log.read_bytes()
    assert b"sensitive gone content" not in compacted
    clock.advance(100)
    store.checkpoint()  # nothing deleted since: append only
    assert log.read_bytes() == compacted + b'{"op":"clock","t":%d}\n' % clock.now()
    store.close()


def test_reopened_store_resumes_the_id_counter(tmp_path, monkeypatch):
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path)
    ids = [store.put(f"post {i}", "tok") for i in range(5)]
    store.delete(ids[1], "tok")  # a deleted id stays issued
    store.close()
    never_closed = make_store(clock=ManualClock(0))
    expected = [never_closed.put(f"post {i}", "tok") for i in range(6)]
    assert expected[:5] == ids

    reopened = make_store(clock=clock, data_dir=tmp_path)
    counters = []
    digest = lethe.store.hmac.digest

    def counted(key, msg, name):
        if msg.startswith(b"id"):  # schedule keys hash hex ids, never "id..."
            counters.append(int.from_bytes(msg[2:], "big"))
        return digest(key, msg, name)

    monkeypatch.setattr(lethe.store.hmac, "digest", counted)
    assert reopened.put("post 5", "tok") == expected[5]
    assert counters == [6]  # one id keyed, by the count past the five issued
    reopened.close()


def test_deleted_id_answers_as_a_never_issued_one(tmp_path):
    """A deleted post leaves nothing that tells its id from one never issued:
    not the record, the post count, the wire or the compacted log.  Yet a
    reopened store, from the raw log or its compaction, never reissues it."""
    clock = ManualClock(0)
    live, raw = tmp_path / "live", tmp_path / "raw"
    store = make_store(clock=clock, data_dir=live, mechanism=tuned_mechanism())
    kept = store.put("kept content", "tok")
    gone = store.put("gone content", "tok")  # the newest post
    never_closed = make_store(clock=ManualClock(0), mechanism=tuned_mechanism())
    *issued, fresh = [never_closed.put(f"post {i}", "tok") for i in range(3)]
    assert issued == [kept, gone]
    clock.advance(100)
    store.delete(gone, "tok")

    def assert_unknown(target, post_id):
        with pytest.raises(KeyError):
            target.record(post_id)
        for token in ("tok", "stranger"):
            get = json.dumps({"op": "get", "post_id": post_id, "token": token})
            assert handle_request(target, get.encode()) == b'{"status":"ok","content":null}\n'
        delete = json.dumps({"op": "delete", "post_id": post_id, "token": "tok"})
        reply = handle_request(target, delete.encode())
        assert reply == b'{"status":"error","code":"unauthorized"}\n'

    for post_id in (gone, fresh):
        assert_unknown(store, post_id)
    assert store.post_count() == 1
    raw.mkdir()
    shutil.copy(live / "store.log", raw / "store.log")
    store.checkpoint()
    log = (live / "store.log").read_bytes()
    assert gone.encode() not in log and b"gone content" not in log
    store.close()

    for data_dir in (raw, live):
        reopened = make_store(
            clock=ManualClock(DAY), data_dir=data_dir, mechanism=tuned_mechanism()
        )
        assert reopened.post_count() == 1
        for post_id in (gone, fresh):
            assert_unknown(reopened, post_id)
        assert reopened.put("next", "tok") == fresh  # the next id, not an issued one
        reopened.close()


class _Race:
    """Once armed with an address, its first fire() during a compaction
    sends a put and a delete of `gone` on a new connection to the server,
    whose loop thread is inside compact() and can serve them only after."""

    address = None
    sent = None

    def __init__(self, gone):
        self.gone, self.compacting, self.events = gone, False, []

    def fire(self):
        if self.address is None or not self.compacting or self.sent is not None:
            return
        sock = socket.create_connection(self.address, timeout=10)
        put = {"op": "put", "content": "put during compaction", "token": "tok"}
        delete = {"op": "delete", "post_id": self.gone, "token": "tok"}
        sock.sendall(b"".join(json.dumps(req).encode() + b"\n" for req in (put, delete)))
        self.sent = sock
        self.events.append("sent")


class _RacingClock(ManualClock):
    def __init__(self, race):
        super().__init__(0)
        self._race = race

    def now(self):
        self._race.fire()
        return super().now()


class _RacingPosts(dict):
    """The live index; fires the race once compaction has walked it."""

    race = None

    def items(self):
        yield from super().items()
        self.race.fire()


@pytest.mark.parametrize(
    "at", ["clock", "index", "fsync"], ids=["clock-read", "index-lock-release", "log-lock-hold"]
)
def test_put_and_delete_during_compaction_survive_reopen(tmp_path, monkeypatch, at):
    """A put and a delete reach the server while it compacts: when
    compaction reads the clock, once it is done with the index of live
    posts, or while it holds the new log open (at its fsync).  They must be
    served after the rewrite and appended to the new log, so a reopen
    serves the put and not the deleted post, and replay finds the put that
    the delete line names."""
    store = make_store(clock=ManualClock(0), data_dir=tmp_path, mechanism=tuned_mechanism())
    gone = store.put("deleted during compaction", "tok")
    trigger = store.put("deleted to make a compaction due", "tok")
    race = _Race(gone)
    if at == "clock":
        store._clock = _RacingClock(race)
    elif at == "index":
        store._posts = _RacingPosts(store._posts)
        store._posts.race = race
    else:
        fsync = os.fsync

        def racing_fsync(fd):
            race.fire()
            fsync(fd)

        monkeypatch.setattr(os, "fsync", racing_fsync)
    compact = store.compact

    def marked():
        race.compacting = True
        try:
            compact()
        finally:
            race.compacting = False
        race.events.append("compacted")

    store.compact = marked
    with serving(store, updater_period=0.01) as server:
        race.address = server.address
        sock, rpc = connect(server.address)
        with sock:
            assert rpc({"op": "delete", "post_id": trigger, "token": "tok"}) == {"status": "ok"}
        deadline = time.monotonic() + 10
        while race.sent is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert race.sent is not None, "no compaction ran"
        with race.sent, race.sent.makefile("rb") as fh:
            put_reply = json.loads(fh.readline())
            delete_reply = json.loads(fh.readline())
    store.close()
    assert race.events[:2] == ["sent", "compacted"]
    assert delete_reply == {"status": "ok"}
    raced = put_reply["post_id"]

    reopened = make_store(clock=ManualClock(DAY), data_dir=tmp_path, mechanism=tuned_mechanism())
    assert reopened.get(raced, "tok") == "put during compaction"
    assert reopened.get(gone, "tok") is None
    assert reopened.post_count() == 1
    reopened.close()


def test_puts_and_deletes_racing_compactions_over_tcp_survive_reopen(tmp_path):
    """Clients put and delete over TCP while the server checkpoints every
    few milliseconds, so that compactions run between their requests.  The
    rewrites must lose neither: after a reopen every acknowledged put is
    served to its owner and every acknowledged delete is gone, and replay
    must find the put that each delete line names."""
    store = make_store(clock=ManualClock(0), data_dir=tmp_path, mechanism=tuned_mechanism())
    compactions = []
    compact = store.compact

    def counted():
        compact()
        compactions.append(1)

    store.compact = counted
    raced, gone, errors = {}, [], []  # live acknowledged puts; acknowledged deletes

    def client(address, k):
        r = np.random.default_rng(k)
        token, mine = f"tok{k}", []
        sock, rpc = connect(address)
        deadline = time.monotonic() + 30
        with sock:
            while len(compactions) < 5 and time.monotonic() < deadline:
                if mine and r.random() < 0.4:
                    post_id = mine.pop(int(r.integers(len(mine))))
                    reply = rpc({"op": "delete", "post_id": post_id, "token": token})
                    if reply != {"status": "ok"}:
                        errors.append(f"delete of {post_id}: {reply}")
                    del raced[post_id]
                    gone.append((post_id, token))
                else:
                    content = f"put during compaction {k}.{len(mine)}"
                    reply = rpc({"op": "put", "content": content, "token": token})
                    mine.append(reply["post_id"])
                    raced[reply["post_id"]] = (token, content)

    with serving(store, updater_period=0.002) as server:
        threads = [threading.Thread(target=client, args=(server.address, k)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    store.close()
    assert not errors, errors[:5]
    assert len(compactions) >= 5 and gone

    reopened = make_store(clock=ManualClock(DAY), data_dir=tmp_path, mechanism=tuned_mechanism())
    for post_id, (token, content) in raced.items():
        assert reopened.get(post_id, token) == content
    for post_id, token in gone:
        assert reopened.get(post_id, token) is None
    assert reopened.post_count() == len(raced)
    reopened.close()


@pytest.mark.parametrize("failing", [1, 2], ids=["file-fsync", "directory-fsync"])
def test_failed_compaction_is_retried_and_leaves_the_log_writable(tmp_path, monkeypatch, failing):
    store = make_store(clock=ManualClock(0), data_dir=tmp_path)
    gone = store.put("gone content", "tok")
    store.delete(gone, "tok")
    calls = []
    fsync = os.fsync

    def fails_once(fd):
        calls.append(fd)
        if len(calls) == failing:
            raise OSError("fsync failed")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", fails_once)
    with pytest.raises(OSError):
        store.checkpoint()
    kept = store.put("kept", "tok")
    store.checkpoint()  # compacts again
    store.close()
    assert b"gone content" not in (tmp_path / "store.log").read_bytes()
    reopened = make_store(clock=ManualClock(DAY), data_dir=tmp_path)
    assert reopened.get(kept, "tok") == "kept"
    assert reopened.get(gone, "tok") is None
    reopened.close()


def test_compaction_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    store = make_store(clock=ManualClock(0), data_dir=tmp_path)
    store.put("kept", "tok")
    synced = []
    fsync = os.fsync

    def recorded(fd):
        synced.append((os.fstat(fd).st_ino, (tmp_path / "store.tmp").exists()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recorded)
    store.compact()
    store.close()
    # the data directory, once store.tmp has replaced the log
    assert (tmp_path.stat().st_ino, False) in synced


# ---------------------------------------------------------------------------
# concurrency


def test_linearizable_randomized_workload(tmp_path):
    """1e4 concurrent ops from 8 TCP clients while the server compacts;
    per-post get/delete stay linearizable."""
    clock = ManualClock(0)
    store = make_store(clock=clock, data_dir=tmp_path, mechanism=tuned_mechanism())
    n_posts = 64
    tokens = {f"post{i}": f"tok{i}" for i in range(n_posts)}
    ids = {}
    for name, token in tokens.items():
        ids[name] = store.put(f"content-{name}", token)
    deleted_acked = {post_id: threading.Event() for post_id in ids.values()}
    errors = []
    ops_per_thread = 1250
    n_threads = 8

    def worker(address, worker_id):
        r = np.random.default_rng(worker_id)
        names = list(ids)
        sock, rpc = connect(address)
        try:
            for k in range(ops_per_thread):
                name = names[int(r.integers(len(names)))]
                post_id = ids[name]
                action = r.random()
                if action < 0.75:
                    # acknowledged before this get was sent
                    was_deleted = deleted_acked[post_id].is_set()
                    get = {"op": "get", "post_id": post_id, "token": tokens[name]}
                    content = rpc(get)["content"]
                    if was_deleted and content is not None:
                        errors.append(f"read-after-delete on {name}")
                    if content is not None and content != f"content-{name}":
                        errors.append(f"torn read on {name}: {content!r}")
                elif action < 0.9:
                    get = {"op": "get", "post_id": post_id, "token": "stranger"}
                    content = rpc(get)["content"]
                    if content is not None and content != f"content-{name}":
                        errors.append(f"torn stranger read on {name}")
                else:
                    reply = rpc({"op": "delete", "post_id": post_id, "token": tokens[name]})
                    if reply == {"status": "ok"}:
                        deleted_acked[post_id].set()
                    elif reply != {"status": "error", "code": "unauthorized"}:
                        errors.append(f"delete of {name}: {reply}")  # else a sibling deleted it
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))
        finally:
            sock.close()

    with serving(store, updater_period=0.005) as server:
        address = server.address
        threads = [threading.Thread(target=worker, args=(address, i)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    assert not errors, errors[:5]
    # every acked deletion is permanent
    for name, post_id in ids.items():
        if deleted_acked[post_id].is_set():
            assert store.get(post_id, tokens[name]) is None
    store.close()


def test_schedule_internals_not_exposed_on_wire():
    store = make_store(clock=ManualClock(0))
    post_id = store.put("c", "tok")
    response = handle_request(
        store, json.dumps({"op": "get", "post_id": post_id, "token": "tok"}).encode()
    )
    payload = json.loads(response)
    assert set(payload) == {"status", "content"}
