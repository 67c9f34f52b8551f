"""Reduce one driver run document into the benchmark's metrics.

The driver (driver.cpp) writes raw measurements: per-pass cells with
their timings, counters and checks, set-up samples, pass-level values
and, in a traced run, spans.  This module turns them into the
end-to-end metrics (untraced run) or the per-layer metrics (traced run)
named in BENCHMARK.json.
"""

import statistics

# Cell kinds that carry a wall time of their own.
TIMED_KINDS = ("sim", "sharded", "exact", "campaign")
# Single-threaded in-process cells, probed right before they run, are
# normalised per pass; multi-threaded work only per run (see
# PROBE_NOMINAL_S).
PER_PASS_KINDS = ("sim", "exact")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics of the traced run's JSON result: counts, ratios and
# rates, plus the tracing overhead.
PER_LAYER_UNITS = {
    "rsin.sim_tasks_per_s": "1/s",
    "des.events_per_s": "1/s",
    "des.events_per_task": "count",
    "des.events_fired": "count",
    "des.events_scheduled": "count",
    "des.events_cancelled": "count",
    "des.arena_bytes": "bytes",
    "des.shard_speedup": "ratio",
    "des.sharded_tasks_per_s": "1/s",
    "sched.routing_attempts_per_task": "count",
    "sched.boxes_per_task": "count",
    "sched.route_success_ratio": "ratio",
    "markov.solves_per_s": "1/s",
    "markov.levels_used": "count",
    "markov.phases": "count",
    "markov.sparse_cells": "count",
    "markov.truncation_bound_max": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.waits": "count",
    "cache.entries_saved": "count",
    "exec.parallel_efficiency": "ratio",
    "obs.ledger_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Per-layer times, printed with the traced run but kept out of its JSON
# result: a layer off a workload's path reads exactly 0 s on every run
# of that workload, which the result format reserves for real readings.
LAYER_TIME_UNITS = {
    "rsin.make_system_s": "s",
    "rsin.run_s": "s",
    "rsin.exact_overhead_s": "s",
    "des.ns_per_event": "ns",
    "markov.chain_build_s": "s",
    "markov.solve_s": "s",
    "exec.cpu_s": "s",
    "obs.replay_s": "s",
    "campaign.resume_s": "s",
}

# Why a per-layer metric reads 0 on a workload, when it does.
_CHILD = "runs inside the rsin_campaign child process, invisible from outside"
_NO_CANCEL = "the models never cancel a scheduled event"
ZERO_REASONS = {
    "sim_paper16": {"des.events_cancelled": _NO_CANCEL},
    "sim_large": {"des.events_cancelled": _NO_CANCEL},
    "exact_chains": {
        "cache.hits": "cold cache by design: every cell is a miss",
        "cache.waits": "single-threaded: no concurrent solve to wait on",
        "cache.entries_saved": "this workload persists no cache",
    },
    "campaign_mixed": {
        "des.events_cancelled": _NO_CANCEL,
        "cache.misses": "the persisted cache serves every analytic cell",
        "cache.waits": "the reload is single-threaded",
        "rsin.make_system_s": _CHILD,
        "rsin.run_s": _CHILD,
        "des.ns_per_event": _CHILD,
        "des.events_per_s": _CHILD,
        "markov.solves_per_s": _CHILD,
        "markov.chain_build_s": _CHILD,
        "markov.solve_s": _CHILD,
        "rsin.exact_overhead_s": _CHILD,
        "markov.levels_used": _CHILD + "; analytic records omit levels",
        "markov.phases": _CHILD + "; analytic records omit phases",
        "markov.sparse_cells": _CHILD + "; analytic records omit the backend",
        "markov.truncation_bound_max": _CHILD
        + "; analytic records omit the bound",
    },
}


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank: with n sorted samples the value at rank n - 10 has
    exactly ten samples above it, so it sits at percentile
    100 * (n - 10) / n.  Fewer than eleven samples have no such
    percentile; the maximum is returned at percentile 100.
    Returns (value, percentile, sample count).
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - 10 if n >= 11 else n
    return data[rank - 1], 100.0 * rank / n, n


def count_failures(passes):
    """Cells attempted, and cells with at least one failed check."""
    attempted = failed = 0
    for p in passes:
        for cell in p["cells"]:
            attempted += 1
            if any(not c["ok"] for c in cell["checks"]):
                failed += 1
    return attempted, failed


def failed_checks(passes, limit=20):
    """Human-readable lines for the first failed checks."""
    lines = []
    for i, p in enumerate(passes):
        for cell in p["cells"]:
            for c in cell["checks"]:
                if not c["ok"] and len(lines) < limit:
                    lines.append("pass %d: %s: %s: %s" % (
                        i, cell["name"], c["name"], c.get("detail", "")))
    return lines


# Host-speed normalisation.  A shared host's other tenants slow a fixed
# single-threaded simulation by up to 80% for minutes at a time; a
# throughput-bound integer probe (driver.cpp, hostProbe) slows in step
# with it (correlation 0.88 between block medians of 400 interleaved
# samples), while no library change can move the probe.  Every
# end-to-end time is therefore reported in seconds of a host whose probe
# reads PROBE_NOMINAL_S: the measured seconds times PROBE_NOMINAL_S /
# (a median probe).  Single-threaded in-process cells use the median
# probe of their pass, the set-up the probes taken around it.
# Multi-threaded work (sharded cells, the campaign child) uses the
# median probe of the whole run: the probe runs on the driver's thread
# between, not during, that work, so only the host's slower drift
# carries over (per-pass factors doubled the campaign's spread, the
# per-run factor halved it).  The constant is the probe's uncontended
# time on the 4-vCPU x86-64 host the bounds were set on; it only fixes
# the scale.
PROBE_NOMINAL_S = 0.007


def _speed(probes):
    """Factor turning measured seconds into nominal-host seconds."""
    return PROBE_NOMINAL_S / median(probes) if probes else 1.0


def _run_speed(passes):
    return _speed([v for p in passes for v in p.get("probes_s", [])])


def cell_times(passes, normalise=True):
    """Per timed cell, its fastest (normalised) wall time across passes.

    Passes repeat identical work, so what differs between them is host
    interference, which only ever slows a cell down; the fastest pass
    is the least disturbed one.
    """
    run_f = _run_speed(passes) if normalise else 1.0
    by_name = {}
    for p in passes:
        pass_f = _speed(p.get("probes_s")) if normalise else 1.0
        for cell in p["cells"]:
            if cell["kind"] in TIMED_KINDS:
                f = pass_f if cell["kind"] in PER_PASS_KINDS else run_f
                by_name.setdefault(cell["name"], []).append(
                    cell["wall_s"] * f)
    return {name: min(v) for name, v in by_name.items()}


def _end_to_end(doc, normalise):
    passes = [p for p in doc["passes"] if not p["traced"]]
    cells = cell_times(passes, normalise)
    tail, pct, n = tail_percentile(cells.values())
    concurrent = any(c["kind"] == "campaign"
                     for p in passes for c in p["cells"])
    # Cells that run one after another add up to the pass; a campaign's
    # cells overlap on its worker threads, so its pass is timed whole.
    if concurrent:
        wall = min(p["wall_s"] for p in passes) * (
            _run_speed(passes) if normalise else 1.0)
    else:
        wall = sum(cells.values())
    setup_speed = _speed(doc.get("setup_probe_s")) if normalise else 1.0
    metrics = {
        "setup_s": median(doc["setup_s"]) * setup_speed,
        "wall_s": wall,
        "cell_p50_s": median(list(cells.values())),
        "cell_tail_s": tail,
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    return metrics, pct, n, len(passes)


def end_to_end(doc):
    """End-to-end metrics (host-speed normalised) and description lines."""
    metrics, pct, n, npasses = _end_to_end(doc, True)
    raw, _, _, _ = _end_to_end(doc, False)
    probes = [v for p in doc["passes"] for v in p.get("probes_s", [])]
    notes = [
        "cell_tail_s is p%.1f of %d cells (each cell's fastest of %d "
        "passes)" % (pct, n, npasses),
        "host probe median %.6g s (nominal %.6g s); unnormalised: %s"
        % (median(probes), PROBE_NOMINAL_S,
           ", ".join("%s=%.6g" % (k, raw[k])
                     for k in ("setup_s", "wall_s", "cell_p50_s",
                               "cell_tail_s"))),
    ]
    return metrics, notes


def _span_sums(doc):
    """Per pass span id -> {span name: summed duration}."""
    spans = doc["spans"]
    sums = {}
    for s in spans:
        # Attribute every span to its enclosing pass span.
        root = s
        while root["parent"] >= 0 and root["name"] != "pass":
            root = spans[root["parent"]]
        if root["name"] != "pass" or root is s:
            continue
        key = id(root)
        bucket = sums.setdefault(key, {})
        bucket[s["name"]] = bucket.get(s["name"], 0.0) + s["end"] - s["start"]
    # Pass spans appear in pass order; traced passes only.
    return [sums.get(id(s), {}) for s in spans if s["name"] == "pass"]


def _ratio(num, den):
    return num / den if den else 0.0


def _pass_layers(p, spans):
    cells = p["cells"]
    values = p["values"]
    serial = [c for c in cells if c["kind"] == "sim"]
    sharded = [c for c in cells if c["kind"] == "sharded"]
    simulated = [c for c in cells
                 if c["kind"] in ("sim", "sharded", "campaign")]
    omega = [c for c in simulated if c["omega"]]
    exact = [c for c in cells if c["kind"] == "exact"]

    run_s = spans.get("rsin.run", 0.0)
    serial_events = sum(c["fired"] for c in serial)
    tasks = sum(c["completed_tasks"] for c in simulated)
    omega_tasks = sum(c["completed_tasks"] for c in omega)
    by_name = {c["name"]: c for c in serial}
    twins = [by_name[c["name"].rsplit(" shards=", 1)[0]] for c in sharded
             if c["name"].rsplit(" shards=", 1)[0] in by_name]
    campaign = [c for c in cells if c["kind"] == "campaign"]
    if campaign:
        sim_rate = _ratio(sum(c["completed_tasks"] for c in campaign),
                          p["wall_s"])
    else:
        sim_rate = _ratio(sum(c["completed_tasks"] for c in serial),
                          sum(c["wall_s"] for c in serial))
    exact_calls = (spans.get("rsin.xbarExact", 0.0)
                   + spans.get("rsin.omegaExact", 0.0))
    split = (spans.get("markov.buildModel", 0.0)
             + spans.get("markov.solveStationary", 0.0)
             + spans.get("markov.chainSolution", 0.0))
    exec_wall = values.get("exec.wall_s", 0.0)
    threads = values.get("exec.threads", 0.0)

    return {
        "rsin.make_system_s": spans.get("rsin.makeSystem", 0.0),
        "rsin.run_s": run_s,
        "rsin.sim_tasks_per_s": sim_rate,
        "rsin.exact_overhead_s": exact_calls - split if exact else 0.0,
        "des.ns_per_event": 1e9 * _ratio(run_s, serial_events),
        "des.events_per_s": _ratio(serial_events, run_s),
        "des.events_per_task": _ratio(sum(c["fired"] for c in simulated),
                                      tasks),
        "des.events_fired": sum(c["fired"] for c in simulated),
        "des.events_scheduled": sum(c["scheduled"] for c in simulated),
        "des.events_cancelled": sum(c["cancelled"] for c in simulated),
        "des.arena_bytes": max([c["arena_bytes"] for c in simulated],
                               default=0),
        "des.shard_speedup": _ratio(sum(c["wall_s"] for c in twins),
                                    sum(c["wall_s"] for c in sharded)),
        "des.sharded_tasks_per_s": _ratio(
            sum(c["completed_tasks"] for c in sharded),
            sum(c["wall_s"] for c in sharded)),
        "sched.routing_attempts_per_task": _ratio(
            sum(c["routing_attempts"] * c["completed_tasks"] for c in omega),
            omega_tasks),
        "sched.boxes_per_task": _ratio(
            sum(c["boxes_traversed"] * c["completed_tasks"] for c in omega),
            omega_tasks),
        "sched.route_success_ratio": _ratio(
            omega_tasks, omega_tasks + sum(c["rejections"] for c in omega)),
        "markov.chain_build_s": spans.get("markov.buildModel", 0.0),
        "markov.solve_s": spans.get("markov.solveStationary", 0.0),
        "markov.solves_per_s": _ratio(
            len(exact), spans.get("markov.solveStationary", 0.0)),
        "markov.levels_used": sum(c["levels_used"] for c in exact),
        "markov.phases": max([c["phases"] for c in exact], default=0),
        "markov.sparse_cells": sum(1 for c in exact if c["sparse"]),
        "markov.truncation_bound_max": max(
            [c["truncation_bound"] for c in exact], default=0.0),
        "cache.hits": values.get("cache.hits", 0.0),
        "cache.misses": values.get("cache.misses", 0.0),
        "cache.waits": values.get("cache.waits", 0.0),
        "cache.entries_saved": values.get("cache.entries_saved", 0.0),
        "exec.cpu_s": values.get("exec.cpu_s", 0.0),
        "exec.parallel_efficiency": _ratio(values.get("exec.cpu_s", 0.0),
                                           exec_wall * threads),
        "obs.ledger_bytes": values.get("obs.ledger_bytes", 0.0),
        "obs.replay_s": spans.get("obs.replayLedger", 0.0),
        "campaign.resume_s": spans.get("campaign.resume", 0.0),
    }


def per_layer(doc):
    """Per-layer metrics (medians over traced passes) and zero notes."""
    traced = [p for p in doc["passes"] if p["traced"]]
    untraced = [p for p in doc["passes"] if not p["traced"]]
    span_sums = _span_sums(doc)
    rows = [_pass_layers(p, s) for p, s in zip(traced, span_sums)]
    metrics = {name: median([r[name] for r in rows])
               for name in list(PER_LAYER_UNITS) + list(LAYER_TIME_UNITS)
               if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        median([p["wall_s"] for p in traced])
        - median([p["wall_s"] for p in untraced]))
    reasons = ZERO_REASONS.get(doc["workload"], {})
    notes = {name: reasons.get(name, "no work on this workload's path")
             for name, v in metrics.items() if v == 0}
    return metrics, notes


def result_line(doc):
    """(metrics dict with units, attempted, failed, description lines)."""
    attempted, failed = count_failures(doc["passes"])
    lines = []
    if doc["trace"]:
        values, notes = per_layer(doc)
        units = PER_LAYER_UNITS
        lines += ["unmeasured: %s = 0 (%s)" % (k, v)
                  for k, v in sorted(notes.items())]
        lines += ["%-34s %.6g %s" % (name, values[name], unit)
                  for name, unit in LAYER_TIME_UNITS.items()]
    else:
        values, notes = end_to_end(doc)
        units = END_TO_END_UNITS
        lines += notes
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return metrics, attempted, failed, lines
