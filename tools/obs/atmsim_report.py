#!/usr/bin/env python3
"""Render atmsim run manifests for humans.

Zero-dependency reporting over the `atmsim-run-manifest-v2` documents
every bench harness writes (schema: docs/OBSERVABILITY.md, validator:
tools/bench/validate_manifest.py). Four views:

  summary <m.json>        one-screen run card: provenance, engine
                          totals, fleet coverage, loss accounting
  phases  <m.json>        engine phase-time breakdown with shares and
                          sample counts (calls vs timed calls)
  workers <m.json>        per-worker fleet skew: shards, chips, spans,
                          streamed partials of abandoned shards
  diff    <old> <new>     run-over-run regression diff: throughput,
                          phase shares, counters

Every command also takes `--json`: same information as a single
machine-readable JSON object on stdout (sorted keys, 2-space
indent), so scripts and the CI golden diff consume a stable schema
instead of parsing the human table.

Output is deterministic for a given manifest (no clocks, no locale),
so CI can diff a view of a committed manifest against a golden copy.

Exit status: 0 on success, 1 on a structurally unusable manifest,
2 on usage errors.
"""

from __future__ import annotations

import json
import sys

SCHEMA = "atmsim-run-manifest-v2"


def fail(message: str) -> "NoReturn":  # noqa: F821 (py3.8 stdlib)
    print(f"atmsim_report: {message}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")
    if not isinstance(manifest, dict):
        fail(f"{path}: manifest is not a JSON object")
    schema = manifest.get("schema")
    if schema != SCHEMA:
        fail(f"{path}: schema is {schema!r}, this tool reads "
             f"{SCHEMA!r}")
    return manifest


def fmt_num(value: float) -> str:
    """Stable human formatting: thousands separators, no locale."""
    if value != value:  # NaN
        return "nan"
    if isinstance(value, int) or value == int(value):
        return format(int(value), ",d")
    return format(value, ",.3f")


def fmt_ms(ns: float) -> str:
    return format(ns * 1e-6, ",.3f")


def table(rows: list[list[str]], header: list[str]) -> str:
    """Fixed-width text table matching util/table.h's look."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    rule = "+-" + "-+-".join("-" * w for w in widths) + "-+"

    def line(cells: list[str]) -> str:
        padded = []
        for i, cell in enumerate(cells):
            if i == 0:
                padded.append(cell.ljust(widths[i]))
            else:
                padded.append(cell.rjust(widths[i]))
        return "| " + " | ".join(padded) + " |"

    out = [rule, line(header), rule]
    out.extend(line(row) for row in rows)
    out.append(rule)
    return "\n".join(out)


def emit_json(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    print()


def manifest_losses(manifest: dict) -> dict:
    metrics = manifest.get("metrics", {})
    return {
        name: entry.get("value")
        for name, entry in sorted(metrics.items())
        if entry.get("kind") == "counter" and entry.get("value")
        and (name.endswith(".dropped_events")
             or name.endswith(".wrapped_events")
             or name.endswith("spans_dropped"))
    }


def summary_data(manifest: dict) -> dict:
    build = manifest.get("build", {})
    engine = manifest.get("engine", {})
    data = {
        "tool": manifest.get("tool"),
        "chip": manifest.get("chip"),
        "seed": manifest.get("seed"),
        "git_commit": build.get("git_commit"),
        "git_dirty": bool(build.get("git_dirty")),
        "jobs_requested": build.get("jobs_requested"),
        "jobs_resolved": build.get("jobs_resolved",
                                   manifest.get("jobs")),
        "args": manifest.get("args", []),
        "fault_campaign": manifest.get("fault_campaign"),
        "interrupted": bool(manifest.get("interrupted")),
        "engine": {
            "runs": engine.get("runs", 0),
            "steps": engine.get("steps", 0),
            "steps_per_sec": engine.get("steps_per_sec", 0.0),
        },
        "wall_seconds": manifest.get("wall_seconds", 0.0),
        "harness_counters": len(manifest.get("counters", {})),
        "metric_entries": len(manifest.get("metrics", {})),
        "losses": manifest_losses(manifest),
        "fleet": None,
    }
    fleet = manifest.get("fleet")
    if fleet is not None:
        data["fleet"] = {
            "shards_completed": fleet["shards_completed"],
            "shards_total": fleet["shards_total"],
            "shards_failed": fleet.get("shards_failed", 0),
            "chips_done": fleet["chips_done"],
            "chips_total": fleet["chips_total"],
            "retries": fleet["retries"],
            "resumed": bool(fleet.get("resumed")),
            "partial_snapshots": sum(
                1 for w in fleet.get("workers", [])
                if w.get("partial") is not None),
        }
    return data


def cmd_summary(manifest: dict) -> None:
    build = manifest.get("build", {})
    engine = manifest.get("engine", {})
    commit = build.get("git_commit")
    if commit is None:
        commit_text = "(no git metadata)"
    else:
        commit_text = commit[:12]
        if build.get("git_dirty"):
            commit_text += " (dirty)"
    requested = build.get("jobs_requested")
    jobs_text = str(build.get("jobs_resolved", manifest.get("jobs")))
    if requested is None:
        jobs_text += " (auto)"

    print(f"tool:        {manifest.get('tool')}")
    print(f"chip:        {manifest.get('chip') or '(none)'}")
    print(f"seed:        {manifest.get('seed')}")
    print(f"commit:      {commit_text}")
    print(f"jobs:        {jobs_text}")
    args = manifest.get("args", [])
    print(f"args:        {' '.join(args) if args else '(none)'}")
    if manifest.get("fault_campaign"):
        print(f"faults:      {manifest['fault_campaign']}")
    if manifest.get("interrupted"):
        print("interrupted: YES (partial record)")

    print(f"engine:      {fmt_num(engine.get('runs', 0))} runs, "
          f"{fmt_num(engine.get('steps', 0))} steps, "
          f"{fmt_num(engine.get('steps_per_sec', 0.0))} steps/s")
    print(f"wall:        {fmt_num(manifest.get('wall_seconds', 0.0))} s")

    fleet = manifest.get("fleet")
    if fleet is not None:
        print(f"fleet:       {fmt_num(fleet['shards_completed'])}/"
              f"{fmt_num(fleet['shards_total'])} shards, "
              f"{fmt_num(fleet['chips_done'])}/"
              f"{fmt_num(fleet['chips_total'])} chips, "
              f"{fmt_num(fleet['retries'])} retries"
              f"{', RESUMED' if fleet.get('resumed') else ''}")
        partial = sum(1 for w in fleet.get("workers", [])
                      if w.get("partial") is not None)
        if fleet.get("shards_failed"):
            print(f"degraded:    {fmt_num(fleet['shards_failed'])} "
                  f"shard(s) abandoned, {partial} partial "
                  f"snapshot(s) preserved")

    counters = manifest.get("counters", {})
    metrics = manifest.get("metrics", {})
    losses = manifest_losses(manifest)
    print(f"counters:    {len(counters)} harness, "
          f"{len(metrics)} metric entries")
    if losses:
        pairs = ", ".join(f"{k}={fmt_num(v)}"
                          for k, v in losses.items())
        print(f"losses:      {pairs}")
    else:
        print("losses:      none recorded")


def phases_data(manifest: dict) -> dict:
    engine = manifest.get("engine", {})
    phases = engine.get("phases", [])
    total = sum(p["wall_ns"] for p in phases)
    rows = []
    for phase in sorted(phases, key=lambda p: -p["wall_ns"]):
        rows.append({
            "name": phase["name"],
            "wall_ns": phase["wall_ns"],
            "share_pct": (100.0 * phase["wall_ns"] / total
                          if total else 0.0),
            "calls": phase["calls"],
            # Manifests from before stride sampling timed every call.
            "timed": phase.get("timed", phase["calls"]),
            "ns_per_call": (phase["wall_ns"] / phase["calls"]
                            if phase["calls"] else 0.0),
        })
    return {"phases": rows, "total_wall_ns": total,
            "profiler_clock_ns": engine.get("profiler_clock_ns", 0.0)}


def cmd_phases(manifest: dict) -> None:
    data = phases_data(manifest)
    if not data["phases"]:
        print("(no phase data: run without wall-clock observability)")
        return
    rows = [[
        row["name"],
        fmt_ms(row["wall_ns"]),
        format(row["share_pct"], ".1f"),
        fmt_num(row["calls"]),
        fmt_num(row["timed"]),
        format(row["ns_per_call"], ",.1f"),
    ] for row in data["phases"]]
    print(table(rows, ["phase", "wall (ms)", "%", "calls", "timed",
                       "ns/call"]))
    print(f"total: {fmt_ms(data['total_wall_ns'])} ms across "
          f"{len(rows)} phases; wall scaled up from the timed calls, "
          f"{format(data['profiler_clock_ns'], ',.1f')} ns clock read "
          f"subtracted per timed call")


def workers_data(manifest: dict) -> dict:
    fleet = manifest.get("fleet")
    workers = (fleet or {}).get("workers", [])
    rows = []
    for w in sorted(workers, key=lambda w: w["worker"]):
        partial = w.get("partial")
        rows.append({
            "worker": w["worker"],
            "pid": w["pid"],
            "shards_completed": w["shards_completed"],
            "chips_observed": w["chips_observed"],
            "obs_messages": w["obs_messages"],
            "span_events": w["span_events"],
            "spans_dropped": w["spans_dropped"],
            "partial": {
                "shards": partial["shards"],
                "chips_observed": partial["chips_observed"],
            } if partial else None,
        })
    skew = None
    if workers:
        chips = [w["chips_observed"] for w in workers]
        busiest, laziest = max(chips), min(chips)
        skew = {
            "busiest_chips": busiest,
            "laziest_chips": laziest,
            # null when a worker saw nothing: x/0 has no JSON spelling
            "ratio": busiest / laziest if laziest else None,
        }
    return {"workers": rows, "skew": skew}


def cmd_workers(manifest: dict) -> None:
    fleet = manifest.get("fleet")
    if fleet is None:
        print("(not a fleet manifest: no workers block)")
        return
    workers = fleet.get("workers", [])
    if not workers:
        print("(in-process campaign: no forked workers)")
        return
    rows = []
    for w in sorted(workers, key=lambda w: w["worker"]):
        partial = w.get("partial")
        rows.append([
            str(w["worker"]),
            str(w["pid"]),
            fmt_num(w["shards_completed"]),
            fmt_num(w["chips_observed"]),
            fmt_num(w["obs_messages"]),
            fmt_num(w["span_events"]),
            fmt_num(w["spans_dropped"]),
            ("shards " + ",".join(str(s) for s in partial["shards"])
             + f" ({fmt_num(partial['chips_observed'])} chips)")
            if partial else "-",
        ])
    print(table(rows, ["worker", "pid", "shards", "chips", "msgs",
                       "spans", "dropped", "partial"]))
    chips = [w["chips_observed"] for w in workers]
    busiest, laziest = max(chips), min(chips)
    skew = busiest / laziest if laziest else float("inf")
    print(f"skew: busiest worker saw {fmt_num(busiest)} chips, "
          f"laziest {fmt_num(laziest)} "
          f"(x{format(skew, '.2f')})" if chips else "skew: n/a")


def diff_line(name: str, old: float, new: float,
              higher_is_better: bool) -> str:
    if old:
        change = 100.0 * (new - old) / old
        arrow = "better" if (change > 0) == higher_is_better else \
            "worse"
        if abs(change) < 0.05:
            arrow = "same"
        delta = f"{format(change, '+.1f')}% {arrow}"
    else:
        delta = "(no baseline)"
    return (f"  {name}: {fmt_num(old)} -> {fmt_num(new)}  {delta}")


def diff_entry(old: float, new: float,
               higher_is_better: bool) -> dict:
    entry = {"old": old, "new": new, "change_pct": None,
             "verdict": "no baseline"}
    if old:
        change = 100.0 * (new - old) / old
        entry["change_pct"] = change
        if abs(change) < 0.05:
            entry["verdict"] = "same"
        elif (change > 0) == higher_is_better:
            entry["verdict"] = "better"
        else:
            entry["verdict"] = "worse"
    return entry


def diff_data(old: dict, new: dict) -> dict:
    old_phases = {p["name"]: p for p in
                  old.get("engine", {}).get("phases", [])}
    new_phases = {p["name"]: p for p in
                  new.get("engine", {}).get("phases", [])}
    old_counters = old.get("counters", {})
    new_counters = new.get("counters", {})
    return {
        "old_tool": old.get("tool"),
        "old_commit": old.get("build", {}).get("git_commit"),
        "new_tool": new.get("tool"),
        "new_commit": new.get("build", {}).get("git_commit"),
        "throughput": {
            "engine.steps_per_sec": diff_entry(
                old.get("engine", {}).get("steps_per_sec", 0.0),
                new.get("engine", {}).get("steps_per_sec", 0.0),
                higher_is_better=True),
        },
        "phase_wall_ms": {
            name: diff_entry(
                old_phases.get(name, {}).get("wall_ns", 0.0) * 1e-6,
                new_phases.get(name, {}).get("wall_ns", 0.0) * 1e-6,
                higher_is_better=False)
            for name in sorted(set(old_phases) | set(new_phases))
        },
        "counters": {
            name: {"old": old_counters.get(name, 0),
                   "new": new_counters.get(name, 0),
                   "changed": (old_counters.get(name, 0)
                               != new_counters.get(name, 0))}
            for name in sorted(set(old_counters) | set(new_counters))
        },
    }


def cmd_diff(old: dict, new: dict) -> None:
    print(f"old: {old.get('tool')} @ "
          f"{(old.get('build', {}).get('git_commit') or '?')[:12]}")
    print(f"new: {new.get('tool')} @ "
          f"{(new.get('build', {}).get('git_commit') or '?')[:12]}")

    print("throughput:")
    print(diff_line("engine.steps_per_sec",
                    old.get("engine", {}).get("steps_per_sec", 0.0),
                    new.get("engine", {}).get("steps_per_sec", 0.0),
                    higher_is_better=True))

    old_phases = {p["name"]: p for p in
                  old.get("engine", {}).get("phases", [])}
    new_phases = {p["name"]: p for p in
                  new.get("engine", {}).get("phases", [])}
    names = sorted(set(old_phases) | set(new_phases))
    if names:
        print("phase wall time (ms):")
        for name in names:
            print(diff_line(
                name,
                old_phases.get(name, {}).get("wall_ns", 0.0) * 1e-6,
                new_phases.get(name, {}).get("wall_ns", 0.0) * 1e-6,
                higher_is_better=False))

    old_counters = old.get("counters", {})
    new_counters = new.get("counters", {})
    names = sorted(set(old_counters) | set(new_counters))
    if names:
        print("counters:")
        for name in names:
            a = old_counters.get(name, 0)
            b = new_counters.get(name, 0)
            marker = "" if a == b else "  *"
            print(f"  {name}: {fmt_num(a)} -> {fmt_num(b)}{marker}")


def main(argv: list[str]) -> int:
    as_json = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    command = argv[1]
    if command in ("summary", "phases", "workers"):
        if len(argv) != 3:
            print(f"usage: atmsim_report.py {command} [--json] "
                  "<manifest.json>", file=sys.stderr)
            return 2
        manifest = load(argv[2])
        if as_json:
            emit_json({"summary": summary_data,
                       "phases": phases_data,
                       "workers": workers_data}[command](manifest))
        else:
            {"summary": cmd_summary,
             "phases": cmd_phases,
             "workers": cmd_workers}[command](manifest)
        return 0
    if command == "diff":
        if len(argv) != 4:
            print("usage: atmsim_report.py diff [--json] "
                  "<old.json> <new.json>", file=sys.stderr)
            return 2
        if as_json:
            emit_json(diff_data(load(argv[2]), load(argv[3])))
        else:
            cmd_diff(load(argv[2]), load(argv[3]))
        return 0
    print(f"atmsim_report: unknown command '{command}'",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
