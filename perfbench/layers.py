"""Per-layer metrics computed from the spans of traced runs.

Every per-layer metric is reported for every workload; a layer the
workload never calls reads 0.  Durations are the span's wall time, self
times subtract the wrapped calls nested inside it, and totals are divided
by the number of traced processes so that they do not grow with run length.
"""

from __future__ import annotations

import json

from common import BENCHMARK_JSON, BenchError, median, quantile
from tracing import Spans

YEAR = 365 * 86400


def _p50(values, scale: float) -> float:
    return quantile(values, 0.5) / scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _durations(sp: Spans, name: str, key: str = "dur_ns", where=None) -> list[int]:
    return [s[key] for s in sp.get(name) if where is None or where(s)]


def library_layers(sp: Spans) -> dict:
    """Metrics of the layers below the store, per traced process."""
    files = max(1, sp.files)
    generate = sp.get("schedule.generate")
    covered_years = sum(s["attrs"]["covered"] for s in generate) / YEAR
    sample = sp.get("distributions.sample")
    draws = sum(s["attrs"]["draws"] for s in sample)
    curves = sp.get("privacy.curve")
    points = sum(s["attrs"]["points"] for s in curves)
    builds = sp.get("tuning.build")
    ccdf = sp.get("distributions.ccdf")
    simulate = sp.get("adversary.simulate")
    accel = [s for s in simulate if s["attrs"]["engine"] == "accelerated"]
    exact = [s for s in simulate if s["attrs"]["engine"] == "exact"]
    evaluate = sp.get("utility.evaluate")
    return {
        "schedule.generate_us_per_post_year": _ratio(sp.total_ns("schedule.generate") / 1e3, covered_years),
        "schedule.generate_calls": len(generate) / files,
        "schedule.extend_us": _p50(_durations(sp, "schedule.extend"), 1e3),
        "schedule.extend_calls": sp.count("schedule.extend") / files,
        "schedule.state_at_ns": _p50(_durations(sp, "schedule.state_at"), 1),
        "schedule.toggles_per_post": _ratio(sum(s["attrs"]["toggles"] for s in generate), len(generate)),
        "rng.substream_calls": sp.count("rng.substream") / files,
        "rng.substream_us": _p50(_durations(sp, "rng.substream"), 1e3),
        "distributions.ccdf_calls": len(ccdf) / files,
        "distributions.ccdf_us": _ratio(sp.total_ns("distributions.ccdf") / 1e3, len(ccdf)),
        "distributions.sample_draws": draws / files,
        "distributions.sample_ns_per_draw": _ratio(sp.total_ns("distributions.sample"), draws),
        "special.betainc_calls": sp.count("special.betainc") / files,
        "special.betainc_us": _ratio(sp.total_ns("special.betainc") / 1e3, sp.count("special.betainc")),
        "tuning.build_ms": _p50(_durations(sp, "tuning.build"), 1e6),
        "tuning.ccdf_calls_per_build": _ratio(
            sum(1 for s in ccdf if s["parent_name"] == "tuning.build"), len(builds)
        ),
        "privacy.curve_points": points / files,
        "privacy.curve_us_per_point": _ratio(sp.total_ns("privacy.curve") / 1e3, points),
        "adversary.accel_posts_per_s": _ratio(
            sum(s["attrs"]["posts"] for s in accel), sum(s["dur_ns"] for s in accel) / 1e9
        ),
        "adversary.accel_self_s": sum(s["self_ns"] for s in accel) / 1e9 / files,
        "adversary.oracle_ms": _p50(_durations(sp, "adversary.oracle"), 1e6),
        "adversary.exact_posts_per_s": _ratio(
            sum(s["attrs"]["posts"] for s in exact), sum(s["dur_ns"] for s in exact) / 1e9
        ),
        "utility.interactions_per_s": _ratio(
            sum(s["attrs"]["interactions"] for s in evaluate), sp.total_ns("utility.evaluate") / 1e9
        ),
        "utility.self_s": sp.total_ns("utility.evaluate", "self_ns") / 1e9 / files,
    }


def finish(values: dict, run_s_ratio: float, covered_share: float) -> dict:
    """Every per_layer metric of BENCHMARK.json, with its unit (0 where the
    layer was not called)."""
    try:
        per_layer = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the per_layer metrics of {BENCHMARK_JSON}: {exc}") from exc
    values = dict(values, **{"trace.run_s_ratio": run_s_ratio, "trace.covered_share": covered_share})
    return {m["name"]: (float(values.get(m["name"], 0.0)), m["unit"]) for m in per_layer}


def pipeline_layers(span_paths, traced_run_s: float, run_s_ratio: float) -> dict:
    """traced_run_s: summed wall time of the traced passes' timed bodies."""
    sp = Spans(span_paths)
    return finish(library_layers(sp), run_s_ratio, sp.root_union_ns / 1e9 / traced_run_s)


def store_layers(trace_dirs, infos, archive, run_deleted, unknown_ids, client_ns: int, run_s_ratio: float) -> dict:
    """run_deleted: ids the traced slices deleted; unknown_ids: the never-created
    ids they asked for; client_ns: summed round-trip time of their requests."""
    sp = Spans([d / "spans.jsonl" for d in trace_dirs])
    values = library_layers(sp)
    handle = sp.get("server.handle")
    puts = _durations(sp, "store.put")
    writes = len(puts) + sp.count("store.delete")

    def cause(span):
        """Why a non-owner get on a post the run did not delete returned null
        (None when it was not such a get)."""
        a = span["attrs"]
        pid = a["post_id"]
        if not a["null"] or pid in run_deleted or a["token"] == archive.tokens.get(pid):
            return None
        if pid in archive.deleted:
            return "deleted"
        if pid in unknown_ids:
            return "unknown"
        return "hidden" if pid in archive.tokens else None

    def null_get(kind):
        return _durations(sp, "store.get", where=lambda s: cause(s) == kind)

    live_gets = [  # non-owner gets on archive posts that no one deleted
        s for s in sp.get("store.get")
        if s["attrs"]["post_id"] in archive.tokens
        and s["attrs"]["post_id"] not in archive.deleted
        and s["attrs"]["post_id"] not in run_deleted
        and s["attrs"]["token"] != archive.tokens[s["attrs"]["post_id"]]
    ]
    appended = 0
    for info in infos:  # bytes appended between compactions, summed
        sizes = info["log_sizes"]
        for (kind, size), (_, previous) in zip(sizes[1:], sizes):
            if kind != "after_compact":
                appended += size - previous
    values.update({
        "server.handle_us.p50": _p50([s["dur_ns"] for s in handle], 1e3),
        "server.self_us.p50": _p50([s["self_ns"] for s in handle], 1e3),
        "store.put_us.p50": _p50(puts, 1e3),
        "store.put_us.p99": quantile(puts, 0.99) / 1e3 if puts else 0.0,
        "store.put_self_us.p50": _p50(_durations(sp, "store.put", "self_ns"), 1e3),
        "store.get_us.p50": _p50(_durations(sp, "store.get"), 1e3),
        "store.delete_us.p50": _p50(_durations(sp, "store.delete"), 1e3),
        "store.replay_s": median(_durations(sp, "store.open")) / 1e9,
        "store.log_bytes_per_write": _ratio(appended, writes),
        "store.extends": sum(
            1 for s in sp.get("schedule.extend") if s["parent_name"] != "store.open"
        ) / len(trace_dirs),
        "store.updater_pass_ms": _p50(_durations(sp, "store.updater_pass"), 1e6),
        "store.compact_ms": _p50(_durations(sp, "store.compact"), 1e6),
        "store.compactions": sp.count("store.compact") / len(trace_dirs),
        "store.rss_kb_per_post": median([i["rss_growth_kb"] / i["posts"] for i in infos]),
        "store.get_null_us.hidden": _p50(null_get("hidden"), 1e3),
        "store.get_null_us.deleted": _p50(null_get("deleted"), 1e3),
        "store.get_null_us.unknown": _p50(null_get("unknown"), 1e3),
        "store.hidden_share": _ratio(sum(1 for s in live_gets if s["attrs"]["null"]), len(live_gets)),
    })
    return finish(values, run_s_ratio, sum(s["dur_ns"] for s in handle) / client_ns)
