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
block can be drawn again at any time.  The store therefore holds no toggles,
only a cursor per post: the current phase's end and parity, the block that
holds that end, and the block's start time.  A get past the phase end, or an
updater pass, redraws from that block to the phase containing now.  Replay
draws every live post from block 0 at its creation time to the phase
containing now, all posts in one many-post call; the clock resumes past
every logged time.  Nothing drawn is logged.  The secret is still derived
from the seed (``--seed``, which ``store serve`` writes to manifest.json), so
anyone holding the manifest can rebuild a post's schedule from its id.
Older logs still replay: tombstone and extend lines only advance the clock,
and put lines without n count nothing.  Compaction rewrites the log as one
put per live post plus a clock line, so a deleted id leaves the disk too; a
checkpoint compacts only if a delete landed since the last compaction, and
otherwise appends a clock line so that the resume point still advances.  A
torn final line (no trailing newline) is dropped on replay; any complete
line that is not an event is fatal, with its line number.  Time comes from a
single monotonic internal clock; tests inject a manual clock.
"""

from __future__ import annotations

import hmac
import json
import os
import threading
import time
from pathlib import Path
from typing import Optional

import numpy as np

from ._rng import substream
from .distributions import DurationDistribution
from .schedule import _BLOCK, DEFAULT_HORIZON, PostRecord, generate_schedule, schedule_key
from .schedule import toggle_batches

# extend_schedule is unused here but stays importable from this module:
# perfbench/tracing.py wraps it by this name.
from .schedule import extend_schedule  # noqa: F401

_UPDATE_CHUNK = 64  # posts per hold of _index_lock in an updater pass


def _same_token(given: str, owner: str) -> bool:
    """Constant-time token check; surrogatepass keeps any str encodable."""
    return hmac.compare_digest(
        given.encode("utf-8", "surrogatepass"), owner.encode("utf-8", "surrogatepass")
    )


class UnauthorizedError(Exception):
    """Token mismatch (or any delete on an unknown/gone post)."""


class Clock:
    """Seconds since the store's epoch, monotone non-decreasing."""

    def now(self) -> int:
        raise NotImplementedError


class MonotonicClock(Clock):
    def __init__(self, start: int = 0):
        self._origin = time.monotonic()
        self._start = start

    def now(self) -> int:
        return self._start + int(time.monotonic() - self._origin)


class ManualClock(Clock):
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
    """A live post's facts and its schedule cursor: ``end`` and ``up`` are
    the current phase's end and parity, ``block`` is the block that holds
    ``end``, and ``start`` is that block's start time."""

    __slots__ = ("token", "content", "created_at", "key", "block", "start", "end", "up")

    def __init__(self, token: str, content: str, created_at: int, key: int):
        self.token, self.content = token, content
        self.created_at, self.key = created_at, key
        self.block, self.start, self.end, self.up = 0, created_at, created_at, True


class PostStore:
    """Authenticated put/get/delete over schedule-gated records.  Lock
    order: _log_lock (held by put, delete and compaction, so a compaction's
    snapshot misses no line its rewrite drops), then _index_lock, which
    guards the index and every cursor."""

    def __init__(
        self,
        up: DurationDistribution,
        down: DurationDistribution,
        seed: int = 0,
        data_dir: str | Path | None = None,
        clock: Clock | None = None,
        horizon: int = DEFAULT_HORIZON,
    ):
        self._up = up
        self._down = down
        self._secret = substream(seed, "schedule").bytes(32)
        self._horizon = horizon  # how far record() draws
        self._clock = clock if clock is not None else MonotonicClock()
        self._posts: dict[str, _Post] = {}  # live posts only
        self._index_lock = threading.Lock()
        self._issued = 0  # ids issued so far, under _index_lock
        self._log_path: Optional[Path] = None
        self._log_lock = threading.Lock()
        self._log_fh = None
        self._compact_due = False  # a delete landed since the last compaction
        if data_dir is not None:
            data_dir = Path(data_dir)
            data_dir.mkdir(parents=True, exist_ok=True)
            self._log_path = data_dir / "store.log"
            self._replay()
            self._log_fh = open(self._log_path, "a", encoding="utf-8")

    # -- identifiers --------------------------------------------------------
    def _new_post_id(self) -> tuple[int, str]:
        with self._index_lock:
            self._issued += 1
            n = self._issued
        digest = hmac.digest(self._secret, b"id" + n.to_bytes(8, "big"), "sha256")
        return n, digest[:16].hex()

    # -- schedule cursors ---------------------------------------------------
    def _advance(self, posts: list[_Post], now: int) -> None:
        """Move each cursor to the phase containing now, redrawing from its
        block until a toggle passes now (a post created after now gets its
        first phase).  The caller holds _index_lock or has not yet published
        the posts."""
        drawn = toggle_batches(
            self._up,
            self._down,
            ((post.key, post.start, max(now, post.start) + 1, post.block) for post in posts),
        )
        for first, toggles, bounds in drawn:
            for i, post in enumerate(posts[first : first + len(bounds) - 1]):
                phases = toggles[bounds[i] : bounds[i + 1]]
                j = int(np.searchsorted(phases, now, side="right"))
                crossed = j // (2 * _BLOCK)
                if crossed:
                    post.block += crossed
                    post.start = int(phases[crossed * 2 * _BLOCK - 1])
                post.end = int(phases[j])
                post.up = j % 2 == 0

    # -- persistence --------------------------------------------------------
    def _append_log(self, event: dict) -> None:
        """Caller holds _log_lock."""
        if self._log_fh is None:
            return
        self._log_fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._log_fh.flush()

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
                op, t = event["op"], int(event["t"])
                self._issued = max(self._issued, int(event.get("n", 0)))
                if op == "put":
                    fields = (event["post_id"], event["token"], event["content"])
                    if not all(isinstance(field, str) for field in fields):
                        raise TypeError("put fields must be strings")
                    post_id, token, content = fields
                    live[post_id] = _Post(token, content, t, schedule_key(self._secret, post_id))
                elif op == "delete":
                    if live.pop(event["post_id"], None) is None:
                        raise ValueError(f"delete of {event['post_id']} follows no live put")
                    self._compact_due = True  # its content is still on disk
                # clock lines, and the tombstone and extend lines of older
                # logs, only advance max_t
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{self._log_path} line {number} is no event: {exc!r}") from exc
            max_t = max(max_t, t)
        # restarted clocks resume past every logged event
        if isinstance(self._clock, MonotonicClock):
            self._clock = MonotonicClock(start=max_t + 1)
        self._advance(list(live.values()), self._clock.now())
        self._posts = live

    # -- public API ---------------------------------------------------------
    def put(self, content: str, owner_token: str) -> str:
        """Store a post; it is immediately visible (initial up phase)."""
        if not content or not owner_token:
            raise ValueError("content and owner token must be non-empty")
        n, post_id = self._new_post_id()
        now = self._clock.now()
        post = _Post(owner_token, content, now, schedule_key(self._secret, post_id))
        self._advance([post], now)
        with self._log_lock:
            with self._index_lock:
                self._posts[post_id] = post
            self._append_log(
                {
                    "op": "put",
                    "post_id": post_id,
                    "token": owner_token,
                    "content": content,
                    "t": now,
                    "n": n,
                }
            )
        return post_id

    def get(self, post_id: str, requester_token: str = "") -> Optional[str]:
        """Content, or None - uniformly for hidden, deleted and unknown posts."""
        with self._index_lock:
            post = self._posts.get(post_id)
            if post is None:
                return None
            if _same_token(requester_token, post.token):
                return post.content
            # read under the lock: no cursor is ever ahead of a get's now
            now = self._clock.now()
            if now >= post.end:
                self._advance([post], now)
            return post.content if post.up else None

    def delete(self, post_id: str, owner_token: str) -> None:
        """Erase content and forget the post; owner only.  A deleted id then
        answers exactly as an unknown one."""
        now = self._clock.now()
        with self._log_lock:
            with self._index_lock:
                post = self._posts.get(post_id)
                # wrong-token, deleted and unknown deletes are indistinguishable
                if post is None or not _same_token(owner_token, post.token):
                    raise UnauthorizedError(post_id)
                del self._posts[post_id]
            self._compact_due = True
            effective = max(now, post.created_at + 1)
            self._append_log({"op": "delete", "post_id": post_id, "t": effective})

    def update_ts(self, post_ids) -> int:
        """Move the cursors of live posts whose phase has ended to now;
        returns how many moved.  The lock is held for one chunk at a time."""
        post_ids = list(post_ids)
        now = self._clock.now()
        moved = 0
        for lo in range(0, len(post_ids), _UPDATE_CHUNK):
            with self._index_lock:
                chunk = (self._posts.get(post_id) for post_id in post_ids[lo : lo + _UPDATE_CHUNK])
                due = [post for post in chunk if post is not None and post.end <= now]
                self._advance(due, now)
            moved += len(due)
        return moved

    def run_updater_pass(self) -> int:
        """One sweep over every live post's cursor."""
        with self._index_lock:
            post_ids = list(self._posts)
        return self.update_ts(post_ids)

    def compact(self) -> None:
        """Rewrite the log as one put per live post and a clock line with the
        count of ids issued, so erased content leaves the disk as well."""
        if self._log_path is None:
            return
        with self._log_lock:
            self._compact_due = False
            with self._index_lock:
                events = [
                    {
                        "op": "put",
                        "post_id": post_id,
                        "token": post.token,
                        "content": post.content,
                        "t": post.created_at,
                    }
                    for post_id, post in self._posts.items()
                ]
                issued = self._issued
            events.append({"op": "clock", "t": self._clock.now(), "n": issued})
            tmp = self._log_path.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                for event in events:
                    fh.write(json.dumps(event, separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            if self._log_fh is not None:
                self._log_fh.close()
            tmp.replace(self._log_path)
            # the rename itself must reach the disk, or a crash brings back
            # the old log and the content this compaction erased
            dir_fd = os.open(self._log_path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            self._log_fh = open(self._log_path, "a", encoding="utf-8")

    def checkpoint(self) -> None:
        """Compact if a delete landed since the last compaction; otherwise
        append a clock line, so that a reopen still resumes past now."""
        if self._compact_due:
            self.compact()
            return
        with self._log_lock:
            self._append_log({"op": "clock", "t": self._clock.now()})

    # -- introspection used by tests and the updater -------------------------
    def post_count(self) -> int:
        """Live posts."""
        with self._index_lock:
            return len(self._posts)

    def record(self, post_id: str) -> PostRecord:
        """Internal/test access to a live post with its full schedule, drawn
        again to one horizon past now (never exposed on the wire); KeyError
        for deleted and unknown ids alike."""
        with self._index_lock:
            post = self._posts[post_id]
            now = self._clock.now()
        horizon = max(self._horizon, now + self._horizon - post.created_at)
        schedule = generate_schedule(self._up, self._down, post.created_at, horizon, post.key)
        return PostRecord(post_id, post.token, post.content, schedule)

    def close(self) -> None:
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
