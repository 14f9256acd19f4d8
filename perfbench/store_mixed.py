"""store-mixed: the archive server under a closed-loop request mix.

Set-up builds one archive through the public PostStore API with a manual
clock: posts spread over two simulated years, some deleted, with updater
passes along the way, so the log holds put, delete and extend events.  Each
slice of the run then starts `lethe store serve` as a child process on a
fresh copy of that log (a reused data dir would replay an ever-growing log)
and drives the same fixed script through it from one thread over two
connections, each waiting for its reply before sending again.  The client
and the server run on separate CPUs.  The server keeps the seed's flush
policy: one flush per appended event, fsync only when the updater compacts.

Which post a non-owner get asks for follows the repository's interaction
model (`lethe.utility.DEFAULT_DECAY_MEAN`): on a platform that creates
posts at a steady rate, the age of the post an interaction lands on is
exponential with that mean.  The request stream stands for the README's
large-platform configuration, 32,000 creations and 10,000 deletions a day
(100 times its scaled-down `simulate` run), so a get lands on a post
created on average DEFAULT_DECAY_MEAN x 32,000 / 86,400, about 1,460,
posts earlier: a post put earlier in the same slice (about 40% of these
gets) or one of the archive's newest posts, taken in creation order.
"""

from __future__ import annotations

import bisect
import json
import math
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    HERE,
    ROOT,
    BenchError,
    child_env,
    children_peak_rss_mb,
    client_and_server_cpus,
    make_workdir,
    median,
    pinned,
    quantile,
)
from layers import store_layers

DAY = 86400
ARCHIVE_POSTS = 3000  # twice the ~1,460 posts a get reaches back on average
ARCHIVE_DAYS = 730
DELETES_PER_DAY = 0.6
UPDATER_EVERY_DAYS = 60
SLICES = 3  # servers started per run; set-up is timed on each
TRACED_SLICES = 2  # per half of a traced run: untraced, then traced
# The server waits this long between the end of one updater pass (plus its
# compaction) and the start of the next, so each slice runs several passes
# and run_s, the mean time per request, includes their stalls.
UPDATER_PERIOD_S = 1.0
CONNECTIONS = 2  # = nproc; more connections only add GIL contention in the server
# Every slice serves the same fixed script, so that each does the same work
# and the server's peak RSS, which grows with every put, does not grow with
# its speed.  The script holds this many requests per second of the slice's
# share of the run, about what the closed loop served on a 2-vCPU machine at
# the seed; a slice too slow to finish stops after twice its share.
SCRIPT_RATE = 6000

# The platform the requests stand for: the README's large-platform
# configuration, 100 times its scaled-down `simulate` run.
CREATIONS_PER_DAY = 32_000
DELETIONS_PER_DAY = 10_000
# Request mix.  The write share (about a tenth), the owner-get share and the
# never-created-id share are assumptions, not measurements; deletes keep the
# platform's ratio to puts.  Gets on deleted ids are not drawn separately:
# they are the decay-model gets that land on a deleted post.
P_WRITE = 0.10
P_PUT = P_WRITE * CREATIONS_PER_DAY / (CREATIONS_PER_DAY + DELETIONS_PER_DAY)
P_DELETE = P_WRITE - P_PUT
P_OWNER_GET = 0.02
P_UNKNOWN_GET = 0.05  # the rest: non-owner gets drawn from the interaction model

NULL_LINE = b'{"status":"ok","content":null}'
SERVER_ARGS = [
    "store", "serve", "--host", "127.0.0.1", "--port", "0",
    "--availability", "0.9", "--mean-down-seconds", "3600", "--theta-days", "30",
    "--horizon-days", "365", "--updater-period-seconds", str(UPDATER_PERIOD_S),
]


@dataclass
class Archive:
    ids: list[str]  # creation order
    tokens: dict[str, str]
    contents: dict[str, str]
    deleted: set[str]
    log: bytes


def _text(rng: np.random.Generator, lo: int, hi: int) -> str:
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz ", dtype=np.uint8)
    return rng.choice(letters, size=int(rng.integers(lo, hi))).tobytes().decode()


def build_archive(seed: int, workdir) -> Archive:
    from lethe.store import ManualClock, PostStore
    from lethe.tuning import TuningSpec, build_mechanism

    up, down = build_mechanism(TuningSpec(0.9, 3600.0, 30 * DAY))
    rng = np.random.default_rng([seed, 1])
    clock = ManualClock(0)
    data_dir = workdir / "archive"
    store = PostStore(up, down, seed=seed, data_dir=data_dir, clock=clock, horizon=365 * DAY)
    ids, tokens, contents, deleted, live = [], {}, {}, set(), []
    per_day = ARCHIVE_POSTS / ARCHIVE_DAYS
    for day in range(ARCHIVE_DAYS):
        for offset in np.sort(rng.integers(0, DAY, size=rng.poisson(per_day))):
            clock.set(max(clock.now(), day * DAY + int(offset)))
            token, content = rng.bytes(8).hex(), _text(rng, 40, 400)
            post_id = store.put(content, token)
            ids.append(post_id)
            live.append(post_id)
            tokens[post_id], contents[post_id] = token, content
        if live and rng.random() < DELETES_PER_DAY:
            clock.advance(1)
            victim = live.pop(int(rng.integers(len(live))))
            store.delete(victim, tokens[victim])
            deleted.add(victim)
        if day % UPDATER_EVERY_DAYS == UPDATER_EVERY_DAYS - 1:
            store.run_updater_pass()
    store.close()
    log = (data_dir / "store.log").read_bytes()
    shutil.rmtree(data_dir)
    return Archive(ids, tokens, contents, deleted, log)


@dataclass
class Request:
    kind: str  # put, delete, get (non-owner), owner_get, unknown_get
    target: str | int | None  # a post id, or the script index of the put that made the post
    token: str
    content: str | None = None  # puts only
    line: bytes | None = None  # None until the target's id is known


def make_script(archive: Archive, seed: int, length: int) -> list[Request]:
    from lethe.utility import DEFAULT_DECAY_MEAN

    rng = np.random.default_rng([seed, 2])
    # Positions count the posts created: the archive's newest post is at 0,
    # the k-th newest at -k, and request i comes at i * P_PUT.
    mean_age = DEFAULT_DECAY_MEAN * CREATIONS_PER_DAY / DAY
    put_at: list[float] = []  # positions of the script's puts
    put_index: list[int] = []  # their script indices
    live: list[str | int] = [pid for pid in archive.ids if pid not in archive.deleted]
    tokens: dict[str | int, str] = dict(archive.tokens)
    script: list[Request] = []

    def decayed_target(now: float) -> str | int:
        while True:
            born = now - rng.exponential(mean_age)
            k = bisect.bisect_right(put_at, born)
            if k:
                return put_index[k - 1]
            rank = max(0, math.ceil(-born))
            if rank < len(archive.ids):  # older than the archive: draw again
                return archive.ids[-1 - rank]

    def request(kind: str, target, token: str) -> Request:
        req = Request(kind, target, token)
        if not isinstance(target, int):
            req.line = _get_line(kind, target, token)
        return req

    for i, r in enumerate(rng.random(length)):
        now = i * P_PUT
        if r < P_PUT:
            content, token = _text(rng, 40, 400), rng.bytes(8).hex()
            line = _line({"op": "put", "content": content, "token": token})
            put_at.append(now)
            put_index.append(i)
            live.append(i)
            tokens[i] = token
            script.append(Request("put", None, token, content, line))
        elif r < P_PUT + P_DELETE:
            victim = live.pop(int(rng.integers(len(live))))  # uniform, as in lethe.adversary
            script.append(request("delete", victim, tokens[victim]))
        elif r < P_WRITE + P_OWNER_GET:
            target = decayed_target(now)
            script.append(request("owner_get", target, tokens[target]))
        elif r < P_WRITE + P_OWNER_GET + P_UNKNOWN_GET:
            script.append(request("unknown_get", rng.bytes(16).hex(), "viewer"))
        else:
            script.append(request("get", decayed_target(now), "viewer"))
    return script


def _get_line(kind: str, post_id: str, token: str) -> bytes:
    op = "delete" if kind == "delete" else "get"
    return _line({"op": op, "post_id": post_id, "token": token})


def _line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


@dataclass
class SliceResult:
    setup_s: float
    latencies: dict = field(default_factory=lambda: {"get": [], "put": [], "delete": []})
    load_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    null_lines: dict = field(default_factory=dict)  # cause -> set of reply lines
    deleted: set = field(default_factory=set)  # ids this slice deleted


class _Server:
    def __init__(self, data_dir, trace_dir, seed: int, cpu: int | None):
        args = [str(HERE / "serve.py")]
        if trace_dir is not None:
            args += ["--trace", str(trace_dir)]
        args += ["--", *SERVER_ARGS, "--data-dir", str(data_dir), "--seed", str(seed)]
        self.stderr = open(data_dir.parent / f"{data_dir.name}.stderr", "w")
        started = time.monotonic()
        with pinned(cpu):
            self.proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=child_env(),
                stdout=subprocess.PIPE, stderr=self.stderr,
            )
        line = self.proc.stdout.readline().decode()
        self.setup_s = time.monotonic() - started
        if not line.startswith("store listening on "):
            self.stop()
            raise self._failure(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        what = "server exited"
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                what = "server did not exit within 30 s of SIGINT; killed"
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if self.proc.returncode != 0:
            raise self._failure(f"{what} ({self.proc.returncode})")

    def _failure(self, what: str) -> BenchError:
        # the work dir, stderr file included, is removed when the run ends
        with open(self.stderr.name, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        return BenchError(f"{what}; server stderr ends: {tail!r}")


def _check(req: Request, reply: bytes, status: str, expected: str | None, out: SliceResult) -> bool:
    """Validate one reply.  status is the post's state when the request was
    sent (live, pending: a delete is in flight, or deleted: the delete was
    acknowledged); expected is the content stored under the id, if any."""
    try:
        payload = json.loads(reply)
    except ValueError:
        return False
    if not isinstance(payload, dict) or payload.get("status") != "ok":
        return False
    if req.kind == "put":
        post_id = payload.get("post_id")
        return isinstance(post_id, str) and len(post_id) == 32
    if req.kind == "delete":
        return reply == b'{"status":"ok"}'
    content = payload.get("content", "missing")
    if content is None:
        if req.kind == "unknown_get":
            cause = "unknown"
        else:
            cause = "deleted" if status != "live" else "hidden"
        out.null_lines.setdefault(cause, set()).add(reply)
        owner_of_live = req.kind == "owner_get" and status == "live" and expected is not None
        return reply == NULL_LINE and not owner_of_live
    if req.kind == "unknown_get" or status == "deleted":
        return False  # deleted and unknown ids never return content
    return content == expected


def _drive(port: int, script: list[Request], max_seconds: float, archive: Archive, out: SliceResult, spin: bool) -> None:
    """Serve the script over CONNECTIONS connections in a closed loop.  With
    spin, the client polls without blocking: on a CPU of its own, it then
    never sleeps, and a reply does not wait for the client's CPU to wake."""
    selector = selectors.DefaultSelector()
    socks = []
    for _ in range(CONNECTIONS):
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks.append(sock)
    state: dict[str, str] = {pid: "deleted" for pid in archive.deleted}
    contents = dict(archive.contents)
    put_ids: dict[int, str] = {}  # script index of a put -> the id it returned
    pending: dict[socket.socket, tuple] = {}
    waiting: list[socket.socket] = []  # next request names a put still in flight
    buffers = {sock: b"" for sock in socks}
    cursor = 0
    started = time.perf_counter_ns()
    deadline = started + int(max_seconds * 1e9)

    def send(sock):
        nonlocal cursor
        index, req = cursor, script[cursor]
        post_id, line = req.target, req.line
        if isinstance(req.target, int):
            post_id = put_ids.get(req.target)
            if post_id is None:
                waiting.append(sock)
                return
            line = _get_line(req.kind, post_id, req.token)
        cursor += 1
        if req.kind == "delete":
            state[post_id] = "pending"
        pending[sock] = (index, req, post_id, state.get(post_id, "live"), time.perf_counter_ns())
        sock.sendall(line)
        out.attempted += 1

    def may_send() -> bool:
        return time.perf_counter_ns() < deadline and cursor < len(script)

    try:
        for sock in socks:
            selector.register(sock, selectors.EVENT_READ)
            send(sock)
        last_reply = time.monotonic()
        while pending:
            events = selector.select(timeout=0 if spin else 30)
            if not events:
                if time.monotonic() - last_reply > 30:
                    raise BenchError("no reply within 30 s")
                continue
            last_reply = time.monotonic()
            for key, _ in events:
                sock = key.fileobj
                data = sock.recv(65536)
                now = time.perf_counter_ns()
                if not data:
                    raise BenchError("server closed a connection")
                buffers[sock] += data
                if b"\n" not in buffers[sock]:
                    continue
                reply, buffers[sock] = buffers[sock].split(b"\n", 1)
                index, req, post_id, status, sent = pending.pop(sock)
                kind = req.kind if req.kind in ("put", "delete") else "get"
                out.latencies[kind].append(now - sent)
                if status == "live" and state.get(post_id, "live") != "live":
                    status = "pending"  # a delete sent since may have overtaken this request
                ok = _check(req, reply, status, contents.get(post_id), out)
                if req.kind == "put":
                    # a failed put leaves an id that matches no post
                    put_ids[index] = json.loads(reply)["post_id"] if ok else "0" * 32
                    if ok:
                        contents[put_ids[index]] = req.content
                elif req.kind == "delete" and ok:
                    state[post_id] = "deleted"
                    out.deleted.add(post_id)
                if not ok:
                    out.failed += 1
                    if len(out.failures) < 5:
                        out.failures.append((req.kind, post_id, status, reply[:120].decode(errors="replace")))
                while waiting and may_send():
                    send(waiting.pop())
                if may_send():
                    send(sock)
        out.load_s = (time.perf_counter_ns() - started) / 1e9
    finally:
        selector.close()
        for sock in socks:
            sock.close()


def _slices(archive: Archive, script, seed: int, seconds: float, count: int, workdir, traced: bool):
    slices, trace_dirs = [], []
    for index in range(count):
        tag = f"{'traced' if traced else 'plain'}{index}"
        data_dir = workdir / tag
        data_dir.mkdir()
        (data_dir / "store.log").write_bytes(archive.log)
        trace_dir = None
        if traced:
            trace_dir = workdir / f"{tag}-trace"
            trace_dir.mkdir()
            trace_dirs.append(trace_dir)
        client_cpu, server_cpu = client_and_server_cpus(index)
        with pinned(client_cpu):
            server = _Server(data_dir, trace_dir, seed, server_cpu)
            result = SliceResult(setup_s=server.setup_s)
            try:
                _drive(server.port, script, 2 * seconds / count, archive, result, spin=server_cpu is not None)
            finally:
                server.stop()
        slices.append(result)
    return slices, trace_dirs


def run(seed: int, seconds: float, trace: bool) -> dict:
    workdir = make_workdir("store-mixed")
    try:
        return _run(seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    archive = build_archive(seed, workdir)
    # a traced run serves half its seconds untraced and half traced, in
    # fewer slices, so that its set-ups do not double its length
    count, served = (TRACED_SLICES, seconds / 2) if trace else (SLICES, seconds)
    script = make_script(archive, seed, int(SCRIPT_RATE * served / count))
    plain, _ = _slices(archive, script, seed, served, count, workdir, False)
    result = _report(plain, archive, children_peak_rss_mb())
    if trace:
        traced, trace_dirs = _slices(archive, script, seed, served, count, workdir, True)
        traced_result = _report(traced, archive, 0.0)
        result["attempted"] += traced_result["attempted"]
        result["failed"] += traced_result["failed"]
        ratio = traced_result["metrics"]["run_s"][0] / result["metrics"]["run_s"][0]
        result["details"]["traced"] = traced_result["details"]
        infos = [json.loads((d / "info.json").read_text()) for d in trace_dirs]
        run_deleted = set().union(*(s.deleted for s in traced))
        unknown_ids = {r.target for r in script if r.kind == "unknown_get"}
        client_ns = sum(sum(v) for s in traced for v in s.latencies.values())
        result["layers"] = store_layers(
            trace_dirs, infos, archive, run_deleted, unknown_ids, client_ns, ratio
        )
    return result


def _report(slices, archive: Archive, peak_rss_mb: float) -> dict:
    lat = {k: [v / 1e6 for s in slices for v in s.latencies[k]] for k in ("get", "put", "delete")}
    attempted = sum(s.attempted for s in slices)
    failed = sum(s.failed for s in slices)
    null_lines = set().union(*(lines for s in slices for lines in s.null_lines.values()))
    if len(null_lines) > 1:
        failed += 1  # null replies must be byte-identical whatever the cause
    load_s = sum(s.load_s for s in slices)
    metrics = {
        "setup_s": (median([s.setup_s for s in slices]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "run_s": (load_s / attempted * 1000, "s"),
    }
    details = {
        "get_p50_ms": quantile(lat["get"], 0.5),
        "get_p99_ms": quantile(lat["get"], 0.99),
        "put_p50_ms": quantile(lat["put"], 0.5),
        "put_p99_ms": quantile(lat["put"], 0.99),
        "throughput_rps": attempted / load_s,
        "slice_rps": [s.attempted / s.load_s for s in slices],
        "requests": {k: len(v) for k, v in lat.items()},
        "load_s": load_s,
        "setup_s_each": [s.setup_s for s in slices],
        "failures": [f for s in slices for f in s.failures],
        "null_causes": sorted({c for s in slices for c in s.null_lines}),
        "archive": {"posts": len(archive.ids), "deleted": len(archive.deleted), "log_bytes": len(archive.log)},
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "details": details, "layers": None}
