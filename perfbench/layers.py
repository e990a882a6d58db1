"""The traced run: a fixed-length daemon sequence, its in-process replay,
the fidelity checks, and the per-layer metrics.

A span is named for the stage its self time is charged to (its duration
minus the part its child spans cover).  Each `<layer>.<stage>_us` metric
is the self time of that stage summed over the timed requests and
divided by their number; `<layer>.<stage>_kw` is the same for the
kilo-words allocated.  Counters are per timed request unless the name
says otherwise.
"""

import json
import os
import subprocess
import time

# Stages with a span in perfbench/replay/replay.ml, in request order.
STAGES = (
    "serve.json_parse",
    "relational.parse",
    "core.snapshot",
    "serve.plan_cache",
    "core.compile",
    "core.planner",
    "sampling.draw",
    "relational.eval",
    "core.tally",
    "core.cluster",
    "core.stream_estimate",
    "core.maintain",
    "serve.json_render",
)
COUNTERS = ("tuples_scanned", "pages_read", "bytes_read", "io_batches", "page_cache_hits",
            "sample_indices", "hash_probe_hits", "hash_probe_misses", "rng_draws",
            "plan_cache_hits", "plan_cache_misses", "plan_cache_evictions",
            "plans_considered", "maintenance_ops")
MIN_COVERAGE = 0.95
OVERHEAD_GUARD = 0.03
PINGS = 200


def traced_prefix(wl, daemon, run, seconds):
    """Send the first `wl.trace_requests` timed requests (a fixed count, so
    counters repeat exactly for a seed), stopping early only if that takes
    longer than three times the run length."""
    deadline = time.perf_counter() + 3 * seconds
    for req in wl.requests("timed", wl.trace_requests):
        run.send(daemon, req, True)
        if time.perf_counter() > deadline:
            break
    # Pings take ~1 us in process, so daemon latency minus in-process time
    # isolates the transport instead of drowning it in the machine's
    # speed drift between the daemon run and the replay.
    for k in range(PINGS):
        ping = {"line": json.dumps({"op": "ping", "id": k}), "cls": "ping", "kind": "admin",
                "truth": None, "expect": None}
        run.send(daemon, ping, False)


def _ratio(num, den):
    return num / den if den else 0.0


def _fidelity(lifetime, totals):
    """Differences between the daemon's metrics reply and replay totals."""
    diffs = []
    for name in COUNTERS:
        if lifetime["counters"][name] != totals["counters"][name]:
            diffs.append(f"{name}: daemon {lifetime['counters'][name]} replay {totals['counters'][name]}")
    for group, keys in (("plan_cache", ("hits", "misses", "evictions")),
                        ("warm_samples", ("sample_hits", "sample_misses", "sample_evictions"))):
        for key in keys:
            if lifetime[group][key] != totals[group][key]:
                diffs.append(f"{group}.{key}: daemon {lifetime[group][key]} replay {totals[group][key]}")
    return diffs


def _self_times(spans):
    """Per stage: (self ns, self words) for one request; plus the root's
    ns and words, and the ns of the root its children cover."""
    child_ns = {}
    child_words = {}
    for _, _, parent, start, end, words, _ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
            child_words[parent] = child_words.get(parent, 0.0) + words
    stages = {}
    root_ns = covered = root_words = None
    for sid, name, parent, start, end, words, _ in spans:
        dur = end - start
        if parent < 0:
            root_ns, root_words, covered = dur, words, child_ns.get(sid, 0)
            continue
        ns, w = stages.get(name, (0, 0.0))
        stages[name] = (ns + dur - child_ns.get(sid, 0), w + words - child_words.get(sid, 0.0))
    if root_ns is None:
        raise RuntimeError("replayed request without a root span")
    return stages, root_ns, root_words, covered


def per_layer(wl, run, lifetime, datadir, replay, env):
    """Run the replay over what was sent; return (metrics, extra, ok)."""
    req_path = os.path.join(datadir, "requests.txt")
    resp_path = os.path.join(datadir, "responses.txt")
    with open(req_path, "w") as out:
        out.write("".join(req["line"] + "\n" for req, _, _, _ in run.sent))
    with open(resp_path, "wb") as out:
        out.write(b"".join(reply + b"\n" for _, reply, _, _ in run.sent))
    args = [replay, "--requests", "requests.txt", "--responses", "responses.txt",
            "--out", "replay.json"]
    args += [f"--rel={name}={path}" for name, path in wl.bindings]
    if not wl.writes:
        args += ["--exact-budget", "10"]
    proc = subprocess.run(args, cwd=datadir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"replay failed ({proc.returncode}): {proc.stderr[-2000:]}")
    with open(os.path.join(datadir, "replay.json")) as f:
        report = json.load(f)

    problems = []
    if report["mismatches"]:
        problems.append(f"{report['mismatches']} replayed replies differ from the daemon's")
        problems.append(proc.stderr.strip()[:1500])
    for which in ("plain_totals", "traced_totals"):
        for diff in _fidelity(lifetime, report[which]):
            problems.append(f"{which}: {diff}")
    exact_checked = 0
    for index, count in report["exact"]:
        req = run.sent[index][0]
        exact_checked += 1
        if req["truth"] != count:
            problems.append(f"truth {req['truth']} != Baselines.Exact {count}: {req['line'][:160]}")

    timed = [i for i, (_, _, _, t) in enumerate(run.sent) if t]
    n = len(timed)
    records = report["requests"]
    stage_ns = dict.fromkeys(STAGES, 0)
    stage_w = dict.fromkeys(STAGES, 0.0)
    totals = dict.fromkeys(COUNTERS, 0)
    min_coverage = 1.0
    class_cover = {}  # request class -> [covered ns, root ns]
    alloc_words = 0.0
    majors = 0
    warm_hits = warm_misses = 0
    budget = scanned_budgeted = 0.0
    write_ops = writes = 0
    rebuilds = expr_reads = 0
    fills = []
    for i in timed:
        rec = records[i]
        stages, root_ns, root_words, covered = _self_times(rec["spans"])
        for name, (ns, w) in stages.items():
            if name not in stage_ns:
                problems.append(f"unknown span {name}")
                continue
            stage_ns[name] += ns
            stage_w[name] += w
        min_coverage = min(min_coverage, covered / root_ns if root_ns else 1.0)
        cover = class_cover.setdefault(run.sent[i][0]["cls"], [0, 0])
        cover[0] += covered
        cover[1] += root_ns
        alloc_words += root_words
        majors += rec["major_collections"]
        for name in COUNTERS:
            totals[name] += rec["counters"][name]
        warm_hits += rec["warm_hits"]
        warm_misses += rec["warm_misses"]
        if rec["budget"] > 0:
            budget += rec["budget"]
            scanned_budgeted += rec["counters"]["tuples_scanned"]
        req = run.sent[i][0]
        if req["kind"] == "write":
            writes += 1
            write_ops += rec["counters"]["maintenance_ops"]
        if json.loads(req["line"])["op"] in ("query", "sql"):
            expr_reads += 1
            rebuilds += rec["rebuilds"]
        if rec["fill_ratio"] is not None:
            fills.append(rec["fill_ratio"])

    # A stage left out of the trace leaves the same gap in every request of
    # its shape, so coverage is judged per request class (pooled over the
    # class); the smallest single-request share is reported beside it,
    # where an interrupt of a few hundred ns can show on a 5 us write.
    coverage = min(c / r for c, r in class_cover.values())
    if coverage < MIN_COVERAGE:
        problems.append(f"trace coverage {coverage:.3f} < {MIN_COVERAGE}")
    plain = sum(report["plain_root_ns"][i] for i in timed)
    traced = sum(report["traced_root_ns"][i] for i in timed)
    overhead = (traced - plain) / plain

    def us(stage):
        return stage_ns[stage] / n / 1000.0

    def kw(stage):
        return stage_w[stage] / n / 1000.0

    transport = sorted((ns - report["plain_root_ns"][i]) / 1000.0
                       for i, (req, _, ns, _) in enumerate(run.sent) if req["cls"] == "ping")
    metrics = {}
    metrics["serve.transport_us"] = (transport[len(transport) // 2], "us")
    for stage in STAGES:
        metrics[f"{stage}_us"] = (us(stage), "us")
        metrics[f"{stage}_kw"] = (kw(stage), "kw")
    c = totals
    metrics.update({
        "serve.plan_cache_hit_rate": (_ratio(c["plan_cache_hits"], c["plan_cache_hits"] + c["plan_cache_misses"]), "ratio"),
        "serve.plan_cache_evictions_per_kreq": (1000.0 * c["plan_cache_evictions"] / n, "count"),
        "serve.warm_hit_rate": (_ratio(warm_hits, warm_hits + warm_misses), "ratio"),
        "relational.load_s": (report["load_s"], "s"),
        "relational.warm_view_s": (report["warm_view_s"], "s"),
        "relational.hash_probes_per_req": ((c["hash_probe_hits"] + c["hash_probe_misses"]) / n, "count"),
        "relational.hash_hit_rate": (_ratio(c["hash_probe_hits"], c["hash_probe_hits"] + c["hash_probe_misses"]), "ratio"),
        "relational.pages_read_per_req": (c["pages_read"] / n, "count"),
        "relational.bytes_read_per_req": (c["bytes_read"] / n, "bytes"),
        "relational.io_batches_per_req": (c["io_batches"] / n, "count"),
        "relational.page_cache_hit_rate": (_ratio(c["page_cache_hits"], c["page_cache_hits"] + c["pages_read"]), "ratio"),
        "sampling.indices_per_req": (c["sample_indices"] / n, "count"),
        "sampling.rng_draws_per_req": (c["rng_draws"] / n, "count"),
        "core.plans_considered_per_req": (c["plans_considered"] / n, "count"),
        "core.tuples_scanned_per_req": (c["tuples_scanned"] / n, "count"),
        "core.scan_amplification": (_ratio(scanned_budgeted, budget), "ratio"),
        "core.maintenance_ops_per_write": (_ratio(write_ops, writes), "count"),
        "core.snapshot_rebuild_rate": (_ratio(rebuilds, expr_reads), "ratio"),
        "core.fill_ratio": (sum(fills) / len(fills) if fills else 0.0, "ratio"),
        "obs.trace_coverage": (coverage, "ratio"),
        "obs.trace_overhead_frac": (overhead, "ratio"),
        "gc.alloc_kw_per_req": (alloc_words / n / 1000.0, "kw"),
        "gc.major_per_kreq": (1000.0 * majors / n, "count"),
        "gc.heap_mb": (report["gc"]["heap_words"] * 8 / 2**20, "MB"),
    })
    extra = {
        "obs.trace_coverage_min_request": (min_coverage, "ratio"),
        "replay_requests": (float(len(run.sent)), "count"),
        "exact_cross_checked": (float(exact_checked), "count"),
        "overhead_guard": (OVERHEAD_GUARD, "ratio"),
    }
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}", flush=True)
    return metrics, extra, not problems
