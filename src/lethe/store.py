"""Visibility-gated archival store.

Each post is a key-value record carrying its owner token and a precomputed
toggle schedule.  Reads are gated on the schedule: the owner always gets a
non-deleted post back, everyone else only during up phases.  Hidden, deleted
and nonexistent posts are indistinguishable to non-owners (a uniform null);
a distinguishable "gone" answer would hand the adversary exactly the signal
the mechanism exists to remove.

Persistence is an append-only JSON-lines log of facts: put, delete,
tombstone and clock lines.  Coverage is not logged.  A schedule depends only
on the store's secret, the post id and its creation time: block b of a post
is drawn from Philox keyed by HMAC-SHA256(secret, post id) at counter
b << 192 (see schedule.py), and extension is prefix-stable and independent
of the horizons it went through, so replay re-derives it: the clock resumes
past every logged time, and each live post is drawn once to the coverage
the updater would ask for at that time.  The secret is still derived from
the seed (``--seed``, which ``store serve`` writes to manifest.json), so
anyone holding the manifest can rebuild a post's schedule from its id.  A
put that a later delete names replays as a tombstone, as compaction leaves
it.  Logs written before coverage was derived still replay; their extend
lines and put horizons are ignored.  Compaction rewrites the log as one put
per live post plus a bare tombstone per deleted post; a checkpoint compacts
only if a delete landed since the last compaction, and otherwise appends a
clock line so that the resume point still advances.  A torn final line (no
trailing newline) is dropped on replay; any complete line that does not
parse is fatal.  Time comes from a single monotonic internal clock; tests
inject a manual clock.
"""

from __future__ import annotations

import hmac
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ._rng import substream
from .distributions import DurationDistribution
from .schedule import (
    DEFAULT_HORIZON,
    PostRecord,
    Schedule,
    extend_schedule,
    extend_schedules,
    generate_schedule,
    observable,
    schedule_key,
)


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


@dataclass
class _Entry:
    record: PostRecord
    lock: threading.Lock


class PostStore:
    """Authenticated put/get/delete over schedule-gated records."""

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
        self._horizon = horizon
        self._clock = clock if clock is not None else MonotonicClock()
        self._posts: dict[str, _Entry] = {}
        self._index_lock = threading.Lock()
        self._id_rng = substream(seed, "post-ids")
        self._id_lock = threading.Lock()
        self._log_path: Optional[Path] = None
        self._log_lock = threading.Lock()
        self._log_fh = None
        self._compact_due = False  # a delete landed since the last compaction
        if data_dir is not None:
            data_dir = Path(data_dir)
            data_dir.mkdir(parents=True, exist_ok=True)
            self._log_path = data_dir / "store.log"
            self._replay()
            # every issued id has an entry, live or tombstone, and took two
            # 64-bit draws: resume the id stream past them, not at its start
            self._id_rng.bit_generator.advance(2 * len(self._posts))
            self._log_fh = open(self._log_path, "a", encoding="utf-8")

    # -- identifiers --------------------------------------------------------
    def _new_post_id(self) -> str:
        with self._id_lock:
            while True:
                post_id = self._id_rng.bytes(16).hex()
                with self._index_lock:
                    if post_id not in self._posts:
                        return post_id

    # -- persistence --------------------------------------------------------
    def _append_log(self, event: dict) -> None:
        if self._log_fh is None:
            return
        with self._log_lock:
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
        events = [
            json.loads(line) for line in data[:complete].split(b"\n") if line.strip()
        ]
        live: dict[str, dict] = {}
        max_t = 0
        for event in events:
            t = int(event["t"])
            max_t = max(max_t, t)
            if event["op"] == "put":
                live[event["post_id"]] = event
            elif event["op"] in ("delete", "tombstone"):
                if event["op"] == "delete" and live.pop(event["post_id"], None) is None:
                    raise ValueError(f"delete of {event['post_id']} follows no live put")
                self._install_tombstone(event["post_id"], t)
            # clock lines, and the extend lines of older logs, only advance max_t
        # a delete line's content is still on disk
        self._compact_due = any(event["op"] == "delete" for event in events)
        # restarted clocks resume past every logged event
        if isinstance(self._clock, MonotonicClock):
            self._clock = MonotonicClock(start=max_t + 1)
        # every live post's schedule, drawn in one many-post call
        now = self._clock.now()
        empty = np.empty(0, dtype=np.int64)
        schedules = (
            Schedule(int(event["t"]), empty, schedule_key(self._secret, post_id))
            for post_id, event in live.items()
        )
        horizons = (max(self._horizon, now + self._horizon - int(e["t"])) for e in live.values())
        schedules = extend_schedules(schedules, self._up, self._down, horizons)
        for (post_id, event), schedule in zip(live.items(), schedules):
            self._install(post_id, event["token"], event["content"], schedule)

    def _install(self, post_id: str, token: str, content: str, schedule: Schedule) -> None:
        record = PostRecord(
            post_id=post_id, owner_token=token, content=content, schedule=schedule
        )
        with self._index_lock:
            self._posts[post_id] = _Entry(record=record, lock=threading.Lock())

    def _install_tombstone(self, post_id: str, deleted_at: int) -> None:
        """Recreate a deleted post from its log: id + time, no content."""
        # deleted posts are never extended: no toggles, no key
        placeholder = Schedule(max(deleted_at - 1, 0), np.empty(0, dtype=np.int64), 0)
        record = PostRecord(post_id, "", None, placeholder, deleted_at=deleted_at)
        with self._index_lock:
            self._posts[post_id] = _Entry(record=record, lock=threading.Lock())

    # -- public API ---------------------------------------------------------
    def put(self, content: str, owner_token: str) -> str:
        """Store a post; it is immediately visible (initial up phase)."""
        if not content or not owner_token:
            raise ValueError("content and owner token must be non-empty")
        post_id = self._new_post_id()
        now = self._clock.now()
        key = schedule_key(self._secret, post_id)
        schedule = generate_schedule(self._up, self._down, now, self._horizon, key)
        self._install(post_id, owner_token, content, schedule)
        self._append_log(
            {
                "op": "put",
                "post_id": post_id,
                "token": owner_token,
                "content": content,
                "t": now,
            }
        )
        return post_id

    def get(self, post_id: str, requester_token: str = "") -> Optional[str]:
        """Content, or None - uniformly for hidden, deleted and unknown posts."""
        with self._index_lock:
            entry = self._posts.get(post_id)
        if entry is None:
            return None
        with entry.lock:
            record = entry.record
            if record.deleted_at is not None:
                return None
            if _same_token(requester_token, record.owner_token):
                return record.content
            now = self._clock.now()
            self._ensure_coverage_locked(entry, now)
            return record.content if observable(record, now) else None

    def delete(self, post_id: str, owner_token: str) -> None:
        """Erase content and force the post down forever; owner only."""
        with self._index_lock:
            entry = self._posts.get(post_id)
        now = self._clock.now()
        if entry is None:
            raise UnauthorizedError(post_id)
        with entry.lock:
            record = entry.record
            if record.deleted_at is not None or not _same_token(owner_token, record.owner_token):
                # deleted-again and wrong-token deletes are indistinguishable
                raise UnauthorizedError(post_id)
            effective = max(now, record.created_at + 1)
            record.mark_deleted(effective)
            record.content = None
        self._compact_due = True
        self._append_log({"op": "delete", "post_id": post_id, "t": effective})

    def update_ts(self, post_ids) -> int:
        """Extend coverage of live posts to now + horizon; returns count extended."""
        extended = 0
        now = self._clock.now()
        for post_id in post_ids:
            with self._index_lock:
                entry = self._posts.get(post_id)
            if entry is None:
                continue
            with entry.lock:
                if entry.record.deleted_at is not None:
                    continue
                if self._ensure_coverage_locked(entry, now):
                    extended += 1
        return extended

    def run_updater_pass(self) -> int:
        """One lazy-update sweep, soonest coverage expiry first."""
        with self._index_lock:
            expiries = [
                (entry.record.schedule.covered_until, post_id)
                for post_id, entry in self._posts.items()
                if entry.record.deleted_at is None
            ]
        return self.update_ts([post_id for _, post_id in sorted(expiries)])

    def _ensure_coverage_locked(self, entry: _Entry, now: int) -> bool:
        """Extend the schedule in memory if coverage ends within one horizon
        of now; replay re-derives coverage, so nothing is logged."""
        record = entry.record
        target = now + self._horizon
        if record.schedule.covered_until >= target:
            return False
        record.schedule = extend_schedule(
            record.schedule, self._up, self._down, target - record.created_at
        )
        return True

    def compact(self) -> None:
        """Snapshot the log: live posts in full, deleted posts as bare
        tombstones, so erased content leaves the disk as well."""
        if self._log_path is None:
            return
        # cleared before the snapshot: a delete after it compacts again
        self._compact_due = False
        with self._index_lock:
            entries = list(self._posts.items())
        events: list[dict] = []
        for post_id, entry in entries:
            with entry.lock:
                record = entry.record
                if record.deleted_at is not None:
                    events.append(
                        {"op": "tombstone", "post_id": post_id, "t": record.deleted_at}
                    )
                    continue
                events.append(
                    {
                        "op": "put",
                        "post_id": post_id,
                        "token": record.owner_token,
                        "content": record.content,
                        "t": record.created_at,
                    }
                )
        events.append({"op": "clock", "t": self._clock.now()})
        with self._log_lock:
            tmp = self._log_path.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                for event in events:
                    fh.write(json.dumps(event, separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            if self._log_fh is not None:
                self._log_fh.close()
            tmp.replace(self._log_path)
            self._log_fh = open(self._log_path, "a", encoding="utf-8")

    def checkpoint(self) -> None:
        """Compact if a delete landed since the last compaction; otherwise
        append a clock line, so that a reopen still resumes past now."""
        if self._compact_due:
            self.compact()
        else:
            self._append_log({"op": "clock", "t": self._clock.now()})

    # -- introspection used by tests and the updater -------------------------
    def post_count(self) -> int:
        with self._index_lock:
            return len(self._posts)

    def record(self, post_id: str) -> PostRecord:
        """Internal/test access to the raw record (never exposed on the wire)."""
        with self._index_lock:
            return self._posts[post_id].record

    def close(self) -> None:
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
