"""Visibility-gated archival store.

Each post is a key-value record carrying its owner token and a cursor into
its toggle schedule.  Reads are gated on the schedule: the owner always gets
a non-deleted post back, everyone else only during up phases.  Hidden,
deleted and nonexistent posts are indistinguishable to non-owners (a uniform
null); a distinguishable "gone" answer would hand the adversary exactly the
signal the mechanism exists to remove.  So a delete forgets its post
entirely.

Post id n (n = 1, 2, ...) is HMAC-SHA256(secret, b"id" + n as 8 big-endian
bytes)[:16] in hex; the store keeps only the count issued.  Persistence is an
append-only JSON-lines log of facts: put, delete and clock lines.  A put line
carries its n and a compaction's clock line the count issued; replay resumes
past the largest.  A schedule depends only on the secret, the post id and its
creation time: block b of a post is drawn from Philox keyed by
HMAC-SHA256(secret, post id) at counter b << 192 (see schedule.py), so any
block can be drawn again at any time.  The store therefore holds no toggles
and no key: a post holds its facts and a cursor (the current phase's
parity, the block holding its end, and that block's start time), and the
store one heap of (phase end, post id).  After replay, the updater pass
alone moves cursors: it pops the pairs whose end has passed, drops deleted
ids, derives the rest's keys and redraws them to the phase containing now
in one many-post call that reads only the block holding now.  A put draws
only its first toggle (``first_toggle``, one exponential for a tuned
geometric) as its heap end, so a pass first draws it when that up phase
ends.  A non-owner get runs the pass, which draws only when the heap's
earliest end has passed, whatever id it names.  Replay moves every post in
one such call and heapifies their ends once; the clock resumes past every
logged time.  Nothing drawn is logged.
The secret is still derived from the seed (``--seed``, which ``store serve``
writes to manifest.json), so anyone holding the manifest can rebuild a
post's schedule from its id.
Replay accepts exactly three ops: put, delete and clock; a put line without
n, as compaction writes, counts nothing.  Compaction rewrites the log as one
put per live post plus a clock line, so a deleted id leaves the disk too; a
checkpoint compacts only if a delete landed since the last compaction, and
otherwise appends a clock line so that the resume point still advances, as
``close`` does.  A torn final line (no trailing newline) is dropped on
replay; any complete line that is not an event, such as an unknown op, a
second put of a live post, or an id count or time that is no JSON integer
or is out of range, is fatal, with its line number.  A put or delete
changes memory only once its line is in the log; a failed or short write is
cut from the file and raised.  Every line goes through one encoder, which
refuses with an OSError, before a byte is written, a t or n that replay
would refuse (t >= 2**62, n >= 2**64 - 1).
Time comes from a single monotonic internal clock; tests inject a manual clock.

A PostStore is owned by one thread and holds no locks: the server's loop
thread makes every call, the updater pass and checkpoints included.
"""

from __future__ import annotations

import errno
import heapq
import hmac
import json
import os
import time
from pathlib import Path
from typing import Optional

import numpy as np

from ._rng import substream
from .distributions import DurationDistribution
from .schedule import DEFAULT_HORIZON, PostRecord, generate_schedule, schedule_key
from .schedule import first_toggle, toggle_batches

# extend_schedule is unused here but stays importable from this module:
# perfbench/tracing.py wraps it by this name.
from .schedule import extend_schedule  # noqa: F401

# built once: json.dumps(..., separators=...) builds an encoder per call; a
# log event holds only strings and ints, so it has no cycle to check for
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
# replay's bounds on a line's id count n and time t, both exclusive
_COUNT_LIMIT = 2**64 - 1
_TIME_LIMIT = 2**62


def _line(event: dict) -> bytes:
    """``event``'s log line; OSError, before a byte is written, for an id
    count or time that replay would refuse."""
    if not (event["t"] < _TIME_LIMIT and event.get("n", 0) < _COUNT_LIMIT):
        raise OSError(errno.EOVERFLOW, f"a {event['op']} line past replay's range")
    return (_ENCODER.encode(event) + "\n").encode("utf-8")


def _same_token(given: str, owner: str) -> bool:
    """Constant-time token check; surrogatepass keeps any str encodable."""
    return hmac.compare_digest(
        given.encode("utf-8", "surrogatepass"), owner.encode("utf-8", "surrogatepass")
    )


class UnauthorizedError(Exception):
    """Token mismatch (or any delete on an unknown/gone post)."""


class MonotonicClock:
    def __init__(self, start: int = 0):
        self._origin = time.monotonic()
        self._start = start

    def now(self) -> int:
        return self._start + int(time.monotonic() - self._origin)


class ManualClock:
    """Test clock advanced explicitly."""

    def __init__(self, start: int = 0):
        self._now = start

    def now(self) -> int:
        return self._now

    def advance(self, seconds: int) -> None:
        self._now += seconds

    def set(self, t: int) -> None:
        if t < self._now:
            raise ValueError("clock cannot go backwards")
        self._now = t


class _Post:
    """A live post's facts and its schedule cursor: ``up`` is the current
    phase's parity, ``block`` is the block that holds the phase's end (kept
    in the store's heap), and ``start`` is that block's start time."""

    __slots__ = ("token", "content", "created_at", "block", "start", "up")

    def __init__(self, token: str, content: str, created_at: int):
        self.token, self.content, self.created_at = token, content, created_at
        self.block, self.start, self.up = 0, created_at, True


# Deleted and unknown ids look up this post, down for ever and refused by
# identity, so they pay a live post's token compare (a 16-byte token in hex).
_ABSENT = _Post("0" * 32, "", 0)
_ABSENT.up = False


def _put_event(post_id: str, post: _Post) -> dict:
    """A live post's put line; ``put`` adds its id count n, compaction none."""
    return {"op": "put", "post_id": post_id, "token": post.token, "content": post.content,
            "t": post.created_at}


class PostStore:
    """Authenticated put/get/delete over schedule-gated records."""

    def __init__(
        self,
        up: DurationDistribution,
        down: DurationDistribution,
        seed: int = 0,
        data_dir: str | Path | None = None,
        clock: MonotonicClock | ManualClock | None = None,
        horizon: int = DEFAULT_HORIZON,
    ):
        self._up = up
        self._down = down
        self._secret = substream(seed, "schedule").bytes(32)
        self._horizon = horizon  # how far record() draws
        self._clock = clock if clock is not None else MonotonicClock()
        self._posts: dict[str, _Post] = {}  # live posts only
        self._ends: list[tuple[int, str]] = []  # heap of (phase end, post id)
        self._issued = 0  # ids issued so far
        self._log_path: Optional[Path] = None
        self._log_fh = None
        self._compact_due = False  # a delete landed since the last compaction
        if data_dir is not None:
            data_dir = Path(data_dir)
            data_dir.mkdir(parents=True, exist_ok=True)
            self._log_path = data_dir / "store.log"
            self._replay()
            self._log_fh = open(self._log_path, "ab", buffering=0)

    # -- identifiers --------------------------------------------------------
    def _post_id(self, n: int) -> str:
        digest = hmac.digest(self._secret, b"id" + n.to_bytes(8, "big"), "sha256")
        return digest[:16].hex()

    # -- persistence --------------------------------------------------------
    def _append_log(self, event: dict) -> None:
        """One write(2) to the unbuffered log: a failed write leaves no bytes
        to be flushed later, and a short one is cut off again."""
        if self._log_fh is None:
            return
        line = _line(event)
        written = self._log_fh.write(line)
        if written != len(line):
            self._log_fh.truncate(self._log_fh.tell() - written)
            raise OSError(errno.ENOSPC, f"short write to {self._log_path}")

    def _replay(self) -> None:
        if self._log_path is None or not self._log_path.exists():
            return
        data = self._log_path.read_bytes()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            # a torn final write: later appends must start on a fresh line
            with open(self._log_path, "r+b") as fh:
                fh.truncate(complete)
        live: dict[str, _Post] = {}
        max_t = 0
        for number, line in enumerate(data[:complete].split(b"\n"), start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
                op, t, n = event["op"], event["t"], event.get("n", 0)
                # JSON integers, no bools, that fit an 8-byte id and an int64 toggle
                if not (type(n) is type(t) is int
                        and 0 <= n < _COUNT_LIMIT and 0 <= t < _TIME_LIMIT):
                    raise ValueError(f"id count {n!r} or time {t!r} is no integer in range")
                self._issued = max(self._issued, n)
                if op == "put":
                    fields = (event["post_id"], event["token"], event["content"])
                    if not all(isinstance(field, str) for field in fields):
                        raise TypeError("put fields must be strings")
                    post_id, token, content = fields
                    if post_id in live:
                        raise ValueError(f"second put of live post {post_id}")
                    live[post_id] = _Post(token, content, t)
                elif op == "delete":
                    if live.pop(event["post_id"], None) is None:
                        raise ValueError(f"delete of {event['post_id']} follows no live put")
                    self._compact_due = True  # its content is still on disk
                elif op != "clock":  # a clock line only advances max_t
                    raise ValueError(f"unknown op {op!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{self._log_path} line {number} is no event: {exc!r}") from exc
            max_t = max(max_t, t)
        # restarted clocks resume past every logged event
        if isinstance(self._clock, MonotonicClock):
            self._clock = MonotonicClock(start=max_t + 1)
        self._posts = live
        self._ends = self._moved(list(live.items()), self._clock.now())  # one draw, one heapify
        heapq.heapify(self._ends)

    # -- public API ---------------------------------------------------------
    def put(self, content: str, owner_token: str) -> str:
        """Store a post; it is immediately visible (initial up phase)."""
        if not content or not owner_token:
            raise ValueError("content and owner token must be non-empty")
        n = self._issued + 1
        post_id = self._post_id(n)
        now = self._clock.now()
        post = _Post(owner_token, content, now)
        first = first_toggle(self._up, schedule_key(self._secret, post_id))
        self._append_log({**_put_event(post_id, post), "n": n})
        self._issued = n
        self._posts[post_id] = post
        heapq.heappush(self._ends, (now + first, post_id))  # its first up phase's end
        return post_id

    def get(self, post_id: str, requester_token: str = "") -> Optional[str]:
        """Content, or None - uniformly for hidden, deleted and unknown posts."""
        post = self._posts.get(post_id, _ABSENT)
        if _same_token(requester_token, post.token) and post is not _ABSENT:
            return post.content
        self.run_updater_pass()
        return post.content if post.up else None

    def delete(self, post_id: str, owner_token: str) -> None:
        """Erase content and forget the post; owner only.  A deleted id then
        answers exactly as an unknown one."""
        now = self._clock.now()
        post = self._posts.get(post_id, _ABSENT)
        # wrong-token, deleted and unknown deletes are indistinguishable
        if not _same_token(owner_token, post.token) or post is _ABSENT:
            raise UnauthorizedError(post_id)
        effective = max(now, post.created_at + 1)
        self._append_log({"op": "delete", "post_id": post_id, "t": effective})
        del self._posts[post_id]  # its heap pair is dropped when popped
        self._compact_due = True

    def run_updater_pass(self) -> int:
        """Move every live post whose phase has ended to the phase containing
        now; returns how many moved."""
        now, ends, due = self._clock.now(), self._ends, []
        while ends and ends[0][0] <= now:
            post_id = heapq.heappop(ends)[1]
            if post_id in self._posts:
                due.append((post_id, self._posts[post_id]))
        if due:  # most loop turns have nothing to draw
            for pair in self._moved(due, now):
                heapq.heappush(ends, pair)
        return len(due)

    def _moved(self, due: list[tuple[str, _Post]], now: int) -> list[tuple[int, str]]:
        """Move each (post id, post) of ``due`` to the phase containing now (or
        its first, if the clock was set back before a reopen) and return their
        (phase end, post id) pairs.  Each reads only its last block, which holds now."""
        posts = (
            (schedule_key(self._secret, post_id), post.start, max(now, post.start) + 1, post.block)
            for post_id, post in due
        )
        ends = []
        for batch in toggle_batches(self._up, self._down, posts):
            bounds = batch.bounds
            for i, (post_id, post) in enumerate(due[batch.first : batch.first + len(bounds) - 1]):
                last = bounds[i + 1] - 1
                toggles = batch.toggles(last)
                j = int(np.searchsorted(toggles, now, side="right"))
                post.block += last - bounds[i]
                post.start, post.up = batch.starts[last], j % 2 == 0
                ends.append((int(toggles[j]), post_id))
        return ends

    def compact(self) -> None:
        """Rewrite the log as one put per live post and a clock line with the
        count of ids issued, so erased content leaves the disk as well."""
        if self._log_path is None:
            return
        clock = _line({"op": "clock", "t": self._clock.now(), "n": self._issued})
        tmp = self._log_path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            for post_id, post in self._posts.items():
                fh.write(_line(_put_event(post_id, post)))
            fh.write(clock)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self._log_path)
        if self._log_fh is not None:
            self._log_fh.close()
        self._log_fh = open(self._log_path, "ab", buffering=0)
        # the rename itself must reach the disk, or a crash brings back
        # the old log and the content this compaction erased
        dir_fd = os.open(self._log_path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._compact_due = False  # only now: a compaction that raised is retried

    def checkpoint(self) -> None:
        """Compact if a delete landed since the last compaction; otherwise
        append a clock line, so that a reopen still resumes past now."""
        if self._compact_due:
            self.compact()
            return
        self._append_log({"op": "clock", "t": self._clock.now()})

    # -- introspection used by tests and the benchmark -----------------------
    def post_count(self) -> int:
        """Live posts."""
        return len(self._posts)

    def record(self, post_id: str) -> PostRecord:
        """Internal/test access to a live post with its full schedule, drawn
        again to one horizon past now (never exposed on the wire); KeyError
        for deleted and unknown ids alike."""
        post = self._posts[post_id]
        now = self._clock.now()
        horizon = max(self._horizon, now + self._horizon - post.created_at)
        key = schedule_key(self._secret, post_id)
        schedule = generate_schedule(self._up, self._down, post.created_at, horizon, key)
        return PostRecord(post_id, post.token, post.content, schedule)

    def close(self) -> None:
        """Append a clock line, so that a reopen resumes past now, and close
        the log even if that write fails."""
        if self._log_fh is not None:
            try:
                self._append_log({"op": "clock", "t": self._clock.now()})
            finally:
                self._log_fh.close()
                self._log_fh = None
