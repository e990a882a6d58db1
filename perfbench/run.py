#!/usr/bin/env python3
"""End-to-end benchmark of the raestat estimation daemon.

Run from the root of a raestat source tree:

    python3 perfbench/run.py --workload select --seed 1 --seconds 10 --trace 0

The benchmark builds `raestat` from source, generates the workload's
data and request sequence from the seed, starts `raestat serve
--workers 1` on a Unix socket, and drives it from one connection in a
closed loop (one request in flight).  Every reply is checked against
exact answers computed before timing starts.

--trace 0 measures the end-to-end metrics with no tracing anywhere.
--trace 1 sends a fixed-length prefix of the same sequence to the
daemon, then replays it in-process (perfbench/replay) with spans off and
on, checks that the replay reproduces every reply byte for byte and the
daemon's lifetime counters exactly, and reports per-layer metrics.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  Lines before it are a human-readable
report, including the per-request-class latency table.
"""

import argparse
import gc
import json
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import workloads  # noqa: E402

CLI = os.path.join("_build", "default", "bin", "raestat_cli.exe")
REPLAY = os.path.join("_build", "default", "perfbench", "replay", "replay.exe")
SCRATCH = ".perfbench"
SETUP_REPEATS = 5
SEGMENTS = 5  # throughput and p50 are medians over this many equal stretches of the run
# Environment switches that change what the daemon computes; the
# benchmark always measures the default configuration.
CLEARED_ENV = ("RAESTAT_NO_OPTIMIZE", "RAESTAT_NO_COLUMNAR", "RAESTAT_MEMORY_CAP")
RESCAN_MARK = b'"needs_rescan":true'


def log(message):
    print(message, flush=True)


def fail_setup(message):
    # Not a measurement: no result line, non-zero exit.
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


# --- build ----------------------------------------------------------------


def build(targets):
    if not (os.path.isfile("dune-project") and os.path.isdir("bin") and os.path.isdir("lib")):
        fail_setup("run from the root of a raestat source tree (dune-project, bin/, lib/)")
    if shutil.which("dune") is None:
        fail_setup("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(["dune", "build", "--root", ".", "--profile", "release", *targets],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail_setup(f"build failed: {' '.join(targets)}")


def child_env():
    return {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}


# --- the daemon -----------------------------------------------------------


class Daemon:
    """One `raestat serve` child on a Unix socket in the run directory."""

    def __init__(self, cli, datadir, bindings):
        args = [cli, "serve", "--workers", "1", "--socket", "bench.sock"]
        args += [f"--rel={name}={path}" for name, path in bindings]
        self.stderr = open(os.path.join(datadir, "serve.stderr"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=datadir, env=child_env(), stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self.stderr)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if b"listening on" not in line:
            self.kill()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(os.path.join(datadir, "bench.sock"))
        self.reader = self.sock.makefile("rb")

    def call(self, line):
        """Send one request line; return (reply line without newline, ns)."""
        data = line.encode() + b"\n"
        return self.call_bytes(data)

    def call_bytes(self, data):
        t0 = time.perf_counter_ns()
        self.sock.sendall(data)
        reply = self.reader.readline()
        t1 = time.perf_counter_ns()
        return reply.rstrip(b"\n"), t1 - t0

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for row in status:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self):
        try:
            self.call('{"op":"shutdown"}')
        except OSError:
            pass
        self.close()

    def close(self):
        for closer in (self.reader.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()
        self.stderr.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def start_daemon(cli, datadir, bindings):
    """Start the daemon SETUP_REPEATS times; keep the last one running.

    Returns the daemon and the median set-up time."""
    times = []
    for k in range(SETUP_REPEATS):
        daemon = Daemon(cli, datadir, bindings)
        times.append(daemon.setup_s)
        if k + 1 < SETUP_REPEATS:
            daemon.stop()
    return daemon, median(times)


# --- statistics -----------------------------------------------------------


def median(values):
    values = sorted(values)
    n = len(values)
    return (values[(n - 1) // 2] + values[n // 2]) / 2.0


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1]); 0 for no values, which only
    happens in a run that already failed its checks."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def q_error(estimate, truth):
    # Stats.Summary.q_error: 0 against 0 is exact, a zero against a
    # non-zero is infinite, signs are ignored.
    estimate, truth = abs(estimate), abs(truth)
    if estimate == 0 and truth == 0:
        return 1.0
    if estimate == 0 or truth == 0:
        return math.inf
    return max(estimate / truth, truth / estimate)


# --- reply checks ---------------------------------------------------------

COUNT_RE = re.compile(r"^estimated COUNT: (-?\d+)", re.M)
CI_RE = re.compile(r"CI: \[(-?\d+), (-?\d+)\]")
TUPLES_RE = re.compile(r"sampled (\d+) of (\d+) tuples")
EPOCH_RE = re.compile(r"maintained at epoch (\d+)")


class Checker:
    """Checks each reply in send order; tracks the stream-epoch offset
    that rescans add to the workload model's predictions."""

    def __init__(self):
        self.rescans = 0

    def check(self, req, reply):
        """Return (failure message or None, (point, lo, hi) for reads)."""
        try:
            obj = json.loads(reply)
        except ValueError:
            return "reply is not JSON", None
        if not isinstance(obj, dict) or obj.get("ok") is not True:
            return f"not ok: {obj.get('error') if isinstance(obj, dict) else obj}", None
        result = obj.get("result")
        if not isinstance(result, dict):
            return "reply has no result object", None
        if req["cls"] == "rescan":
            self.rescans += 1
            return None, None
        expect = req["expect"] or {}
        for key, want in expect.items():
            if key == "epoch":
                want += self.rescans
            if result.get(key) != want:
                return f"{key} = {result.get(key)!r}, expected {want!r}", None
        if req["kind"] != "read":
            return None, None
        text, point = result.get("text"), result.get("point")
        if not isinstance(text, str) or not isinstance(point, (int, float)):
            return "read reply lacks text/point", None
        count = COUNT_RE.search(text)
        if count is None or abs(float(count.group(1)) - point) > 0.5:
            return "text COUNT disagrees with point", None
        ci = CI_RE.search(text)
        if ci is None:
            return "text has no CI", None
        lo, hi = float(ci.group(1)), float(ci.group(2))
        if not lo <= hi:
            return "CI bounds out of order", None
        sampled = TUPLES_RE.search(text)
        if "population" in expect and (sampled is None or int(sampled.group(2)) != expect["population"]):
            return "sampled-line population disagrees with the live model", None
        if "epoch" in expect:
            epoch = EPOCH_RE.search(text)
            if epoch is None or int(epoch.group(1)) != expect["epoch"] + self.rescans:
                return "text epoch disagrees with the write sequence", None
        return None, (point, lo, hi)


# --- one run --------------------------------------------------------------


RESCAN = {"line": json.dumps({"op": "rescan", "relation": "s"}), "cls": "rescan", "kind": "admin",
          "truth": None, "expect": None}


class Run:
    """The requests sent and their replies, in order.  Replies are checked
    after the timed loop, so the client does as little as possible while
    the daemon is being timed."""

    def __init__(self):
        self.sent = []  # (request, reply, ns, timed)
        self.failures = []
        self.reads = []  # (point, lo, hi, truth) for timed reads, in order

    def send(self, daemon, req, timed, data=None):
        reply, ns = daemon.call_bytes(data or (req["line"] + "\n").encode())
        self.sent.append((req, reply, ns, timed))
        if RESCAN_MARK in reply:
            reply2, ns2 = daemon.call(RESCAN["line"])
            self.sent.append((RESCAN, reply2, ns2, timed))

    def check(self):
        checker = Checker()
        for req, reply, _, timed in self.sent:
            failure, read = checker.check(req, reply)
            if failure is not None:
                self.failures.append((req["line"][:200], failure))
            elif read is not None and timed:
                self.reads.append(read + (req["truth"],))


def class_table(sent):
    rows = {}
    for req, _, ns, timed in sent:
        if timed:
            rows.setdefault((req["kind"], req["cls"]), []).append(ns / 1000.0)
    out = []
    for (kind, cls), values in sorted(rows.items()):
        out.append(f"  {kind:5} {cls:16} n={len(values):6d}  p50={percentile(values, 0.5):10.1f} us"
                   f"  p99={percentile(values, 0.99):10.1f} us")
    return out


def untraced(wl, daemon, run, seconds):
    """Timed closed loop for `seconds`; returns each timed request's
    completion time in ns from the start."""
    timed = wl.requests("timed", wl.max_requests(seconds))
    lines = [(req["line"] + "\n").encode() for req in timed]
    done = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    for req, data in zip(timed, lines):
        run.send(daemon, req, True, data)
        now = time.perf_counter_ns()
        done.append(now - start)
        if now >= deadline:
            break
    return done


def accuracy(wl, run):
    """q-error percentiles and CI miss rate over the first
    `wl.accuracy_reads` timed reads: a fixed prefix of the sequence, so
    the values repeat exactly for a seed however long the run is."""
    scored = run.reads[: wl.accuracy_reads]
    qerrs = [q_error(point, truth) for point, _, _, truth in scored]
    misses = sum(1 for _, lo, hi, truth in scored if not lo <= truth <= hi)
    log(f"accuracy scored on the first {len(scored)} timed reads")
    return {
        "qerr_p50": (percentile(qerrs, 0.5), "ratio"),
        "qerr_p95": (percentile(qerrs, 0.95), "ratio"),
        "ci_miss_rate": (misses / max(1, len(scored)), "ratio"),
    }


def by_stretch(done, values, stretches):
    """Split the timed requests into `stretches` equal stretches of wall
    time by completion; `values` holds one entry per timed request (None
    to leave it out)."""
    wall = done[-1]
    out = [[] for _ in range(stretches)]
    for t, value in zip(done, values):
        if value is not None:
            out[min(stretches - 1, t * stretches // wall)].append(value)
    return out


def end_to_end_metrics(wl, run, done, setup_s, rss_mb):
    """Throughput, p50 and p99 are medians over equal stretches of the run,
    so a stall of the machine in one stretch moves them little: SEGMENTS
    stretches for throughput and p50, and for p99 as many (up to
    SEGMENTS) as leave >= 1,000 reads, so >= 10 beyond its p99, in each."""
    wall = done[-1]
    timed = [(req, ns) for req, _, ns, t in run.sent if t and req is not RESCAN]
    read_us = [ns / 1000.0 if req["kind"] == "read" else None for req, ns in timed]
    reads = [us for us in read_us if us is not None]
    rates = [len(s) / (wall / SEGMENTS / 1e9) for s in by_stretch(done, done, SEGMENTS)]
    p50s = [percentile(s, 0.5) for s in by_stretch(done, read_us, SEGMENTS) if s]
    tail_stretches = max(1, min(SEGMENTS, len(reads) // 1000))
    p99s = [percentile(s, 0.99) for s in by_stretch(done, read_us, tail_stretches) if s]
    writes = [ns / 1000.0 for req, _, ns, timed in run.sent if timed and req["kind"] == "write"]
    scores = accuracy(wl, run)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (median(rates), "1/s"),
        "p50_us": (median(p50s), "us"),
        "p99_us": (median(p99s), "us"),
        "qerr_p50": scores["qerr_p50"],
        "qerr_p95": scores["qerr_p95"],
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "ci_miss_rate": scores["ci_miss_rate"],
        "fail_rate": (len(run.failures) / len(run.sent), "ratio"),
    }
    if writes:
        extra["write_p50_us"] = (percentile(writes, 0.5), "us")
        extra["write_p99_us"] = (percentile(writes, 0.99), "us")
    log(f"timed: {len(done)} requests in {wall / 1e9:.3f} s ({len(reads)} reads, {len(writes)} writes)")
    log("per stretch: requests/s " + " ".join(f"{r:.1f}" for r in rates)
        + "; read p50 us " + " ".join(f"{v:.1f}" for v in p50s)
        + "; read p99 us " + " ".join(f"{v:.1f}" for v in p99s))
    return metrics, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true", help="keep the run directory")
    args = parser.parse_args()

    build([CLI] + ([REPLAY] if args.trace else []))
    cli = os.path.abspath(CLI)
    datadir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(datadir, ignore_errors=True)
    os.makedirs(datadir)
    daemon = None
    try:
        def pack(src, dst):
            subprocess.run([cli, "pack", src, dst], check=True, stdout=subprocess.DEVNULL)

        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, datadir, pack)
        warmup = wl.warmup()
        log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
            f"inputs generated in {time.perf_counter() - t0:.1f} s")
        daemon, setup_s = start_daemon(cli, datadir, wl.bindings)
        run = Run()
        # No collections of the client's heap while the daemon is timed.
        gc.collect()
        gc.disable()
        for req in warmup:
            run.send(daemon, req, False)
        if args.trace:
            layers.traced_prefix(wl, daemon, run, args.seconds)
        else:
            done = untraced(wl, daemon, run, args.seconds)
        gc.enable()
        lifetime = json.loads(daemon.call('{"op":"metrics"}')[0])["result"]
        rss_mb = daemon.peak_rss_mb()
        daemon.stop()
        daemon = None
        run.check()

        for line in class_table(run.sent):
            log(line)
        for line, failure in run.failures[:10]:
            log(f"FAILED: {failure}: {line}")
        if args.trace:
            metrics, extra, ok = layers.per_layer(wl, run, lifetime, datadir, os.path.abspath(REPLAY),
                                                  child_env())
            extra.update(accuracy(wl, run))
        else:
            metrics, extra = end_to_end_metrics(wl, run, done, setup_s, rss_mb)
            ok = True
        for name, (value, unit) in list(metrics.items()) + list(extra.items()):
            log(f"{name} = {value:.6g} {unit}")
        # The result carries the metrics BENCHMARK.json declares; the
        # report above has them all.
        with open("BENCHMARK.json") as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        wrong = [m["name"] for m in declared if metrics.get(m["name"], (0, None))[1] != m["unit"]]
        if wrong:
            fail_setup(f"metrics missing or in another unit: {', '.join(wrong)}")
        declared = [m["name"] for m in declared]
        failed = len(run.failures)
        result = {
            "correct": ok and failed == 0,
            "attempted": len(run.sent),
            "failed": failed,
            "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
        }
        print(json.dumps(result), flush=True)
    finally:
        if daemon is not None:
            daemon.kill()
        if not args.keep:
            shutil.rmtree(datadir, ignore_errors=True)
            try:
                os.rmdir(SCRATCH)
            except OSError:
                pass


if __name__ == "__main__":
    main()
