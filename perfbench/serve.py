"""Run `lethe store serve` in this process, optionally with spans recorded.

Usage: python perfbench/serve.py [--trace DIR] -- <lethe cli arguments>

No console script is installed and `python -m lethe.cli` has no entry
guard, so this launcher calls ``lethe.cli.main`` itself.  With --trace it
installs the span wrappers first and, at exit, writes DIR/spans.jsonl plus
DIR/info.json: the growth of the resident set across the store's
construction (log replay) and the log size around every compaction, from
which the bytes appended per write follow.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import sys


def _traced(trace_dir: str, cli_args: list[str]) -> None:
    import tracing

    tracing.install_and_write_at_exit(os.path.join(trace_dir, "spans.jsonl"))
    from lethe.store import PostStore

    log_path = os.path.join(cli_args[cli_args.index("--data-dir") + 1], "store.log")
    info = {"log_sizes": []}

    def log_size():
        return os.path.getsize(log_path) if os.path.exists(log_path) else 0

    def resident_kb():
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024

    def wrap_open(init):
        def opened(self, *args, **kwargs):
            before = resident_kb()
            init(self, *args, **kwargs)
            info["rss_growth_kb"] = resident_kb() - before
            info["posts"] = self.post_count()
            info["log_sizes"].append(["open", log_size()])

        return opened

    def wrap_compact(compact):
        def compacted(self):
            info["log_sizes"].append(["before_compact", log_size()])
            compact(self)
            info["log_sizes"].append(["after_compact", log_size()])

        return compacted

    PostStore.__init__ = wrap_open(PostStore.__init__)
    PostStore.compact = wrap_compact(PostStore.compact)

    def write_info():
        info["log_sizes"].append(["exit", log_size()])
        with open(os.path.join(trace_dir, "info.json"), "w", encoding="utf-8") as fh:
            json.dump(info, fh)

    atexit.register(write_info)


def main() -> None:
    # The benchmark stops the server with SIGINT.  A process started in the
    # background of a non-interactive shell inherits SIGINT ignored, and
    # Python then keeps ignoring it; take back the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    args = sys.argv[1:]
    split = args.index("--")
    own, cli_args = args[:split], args[split + 1 :]
    if own[:1] == ["--trace"]:
        _traced(own[1], cli_args)
    from lethe import cli

    sys.argv = ["lethe", *cli_args]
    cli.main()


if __name__ == "__main__":
    main()
