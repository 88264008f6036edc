#!/usr/bin/env python3
"""End-to-end certification benchmark for compserve and compcheck.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-open-window --seed 1 --seconds 50 --trace 0

It builds the programs from source with dune, generates the workload's
inputs from the seed (perfbench/perfgen.ml), drives the shipped binaries
from outside -- a live `compserve` daemon over its Unix socket, or
`compcheck` over a corpus of history files -- and checks every verdict
against the reference that perfgen computed with the specialised
criteria.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones (daemon spans plus an in-process replay).  See
perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import itertools
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

# Distinct streams (files for batch) generated per seed; a run cycles
# through them until its time is up.  perfgen fixes each one's shape.
POOL = {"serve-open-window": 4, "batch": 288}

# One daemon shard and one client connection.  Two shards on the 2-CPU
# reference box put two shard domains, the transport domain and the
# client on two CPUs, and the daemon answered slower (serve-open p50
# 4.4 ms against 2.2 ms).
SHARDS = 1
SETUP_LAUNCHES = 41  # program launches per run; setup_s is their median
STREAM_NAMES = ["s%d" % i for i in range(16)]
REPLAY_STREAMS = {"serve-open-window": 1, "batch": 24}
PATHS = ("initial", "fast", "delta", "kernel", "full")
TIMEOUT_S = 60.0  # longest wait for any single answer

BUILD = os.path.join("_build", "default")
COMPSERVE = os.path.join(BUILD, "bin", "compserve.exe")
COMPCHECK = os.path.join(BUILD, "bin", "compcheck.exe")
PERFGEN = os.path.join(BUILD, "perfbench", "perfgen.exe")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


# ---------------------------------------------------------------- build


def build():
    for need in ("dune-project", os.path.join("bin", "compserve.ml"),
                 os.path.join("perfbench", "perfgen.ml")):
        if not os.path.exists(need):
            raise BenchError("not a checkout of the repository (missing %s)" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
           COMPSERVE.split(os.sep, 2)[2], COMPCHECK.split(os.sep, 2)[2],
           PERFGEN.split(os.sep, 2)[2]]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("dune build failed with code %d" % proc.returncode)


# ---------------------------------------------------------------- inputs


def generate(workload, seed, work):
    subprocess.run([PERFGEN, "gen", workload, str(seed), str(POOL[workload]), work],
                   check=True)
    with open(os.path.join(work, "inputs.json"), "rb") as f:
        raw = f.read()
    inputs = json.loads(raw)
    for entry in inputs.get("files", []):
        with open(os.path.join(work, entry["path"]), "rb") as f:
            entry["text"] = f.read()
    for s in inputs.get("streams", []):
        s["appends"] = [a.encode() for a in s["appends"]]
    # The digest covers exactly the bytes the program receives, with their
    # expected verdicts, so workloads that share inputs share a digest.
    digest = hashlib.sha256()
    for s in streams_of(workload, inputs):
        for body, expect in zip(s["appends"], s["expect"]):
            digest.update(b"%d %d\n" % (len(body), expect))
            digest.update(body)
    inputs["digest"] = digest.hexdigest()
    return inputs


def record(workload, inputs):
    """What the inputs look like, so a change of shape shows in the output.
    For batch, streams and appends count files."""
    streams = streams_of(workload, inputs)
    verdicts = [v for s in streams for v in s["expect"]]
    return {
        "workload": workload,
        "seed": inputs["seed"],
        "streams": len(streams),
        "appends": len(verdicts),
        "bytes": sum(len(b) for s in streams for b in s["appends"]),
        "nodes": sum(u["nodes"] for u in inputs.get("files", inputs.get("streams"))),
        "accept_share": sum(verdicts) / len(verdicts),
        "window": inputs["window"],
        "digest": inputs["digest"],
    }


def streams_of(workload, inputs):
    """Append sequences to send: the workload's streams, or -- for batch,
    whose daemon phases run only in the traced run -- each file as one
    whole-history append."""
    if workload == "batch":
        return [{"appends": [e["text"]], "expect": [e["expect"]]}
                for e in inputs["files"]]
    return inputs["streams"]


# ---------------------------------------------------------------- processes


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def stop(proc, grace=TIMEOUT_S):
    """SIGTERM (the daemon drains and flushes --spans), then wait."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


class Daemon:
    """One compserve process on a Unix socket, with SHARDS connections."""

    def __init__(self, work, window, spans=None):
        self.sock = os.path.join(work, "s.sock")
        cmd = [COMPSERVE, "--socket", self.sock, "--shards", str(SHARDS)]
        if window is not None:
            cmd += ["--window", str(window)]
        if spans is not None:
            cmd += ["--trace-rate", "1", "--spans", spans]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.conns = []
        try:
            self._await_listen()
            for _ in range(SHARDS):
                c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                c.connect(self.sock)
                self.conns.append(c)
        except BaseException:
            self.close()
            raise

    def _await_listen(self):
        buf = b""
        deadline = self.t0 + TIMEOUT_S
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stderr, selectors.EVENT_READ)
        try:
            while b"listening" not in buf:
                if not sel.select(max(0.0, deadline - time.perf_counter())):
                    raise BenchError("compserve did not start")
                chunk = os.read(self.proc.stderr.fileno(), 4096)
                if not chunk:
                    raise BenchError("compserve exited: %r" % buf)
                buf += chunk
        finally:
            sel.close()

    def close(self):
        """Close the connections, read the peak RSS, drain the daemon."""
        for c in self.conns:
            c.close()
        self.conns = []
        rss = peak_rss_mb(self.proc.pid) if self.proc.poll() is None else None
        code = stop(self.proc)
        self.proc.stderr.close()
        if code != 0:
            raise BenchError("compserve exited with code %s" % code)
        return rss


# ---------------------------------------------------------------- serve client


class Conn:
    def __init__(self, sock, index):
        self.sock = sock
        # A closed stream's name is free again, and one connection has one
        # stream open at a time, so its names can cycle.
        self.names = itertools.cycle("c%d%s" % (index, n) for n in STREAM_NAMES)
        self.buf = b""
        self.state = None  # "open" | "append" | "close" | None (idle)
        self.stream = None
        self.sid = None
        self.i = 0  # next append index
        self.sent = 0  # perf_counter_ns of the append in flight
        self.trace = 0
        self.lats = []  # the stream's latencies, ms
        self.streams_done = 0


class Drive:
    """Closed-loop client: each connection carries one stream at a time and
    sends the next append only after the previous verdict arrived."""

    def __init__(self, daemon, streams, traced):
        self.conns = [Conn(s, i) for i, s in enumerate(daemon.conns)]
        self.streams = streams
        self.next_stream = 0
        self.traced = traced
        self.next_trace = 0
        self.units = []  # per finished stream: p50 and p90
        self.trace_latency_us = {}
        self.completed = 0  # verdicts that matched the reference
        self.began = self.ended = 0  # perf_counter_ns: run start, last verdict
        self.attempted = 0
        self.failed = 0

    def start_stream(self, c):
        c.stream = self.streams[self.next_stream % len(self.streams)]
        self.next_stream += 1
        c.sid = next(c.names)
        c.i = 0
        c.lats = []
        c.state = "open"
        self.attempted += len(c.stream["appends"])
        c.sock.sendall(b"open %s\n" % c.sid.encode())

    def send_append(self, c):
        body = c.stream["appends"][c.i]
        head = b"append %s %d" % (c.sid.encode(), len(body))
        if self.traced:
            self.next_trace += 1
            c.trace = self.next_trace
            head += b" t=%x:%x" % (c.trace, (1 << 40) | c.trace)
        c.state = "append"
        c.sent = time.perf_counter_ns()
        c.sock.sendall(head + b"\n" + body)

    def end_stream(self, c):
        c.state = "close"
        c.sock.sendall(b"close %s\n" % c.sid.encode())

    def on_line(self, c, line, now):
        words = line.split()
        if c.state == "open":
            if words != [b"ok"]:
                raise BenchError("open %s: %r" % (c.sid, line))
            self.send_append(c)
        elif c.state == "append":
            lat_ns = now - c.sent
            expect = c.stream["expect"][c.i]
            ok = (len(words) >= 3 and words[0] == b"verdict"
                  and words[1] == c.sid.encode() and words[2] in (b"accept", b"reject"))
            accepted = ok and words[2] == b"accept"
            if ok and accepted == expect:
                c.lats.append(lat_ns / 1e6)
                self.completed += 1
                self.ended = now
                if self.traced:
                    self.trace_latency_us[c.trace] = lat_ns / 1e3
            else:
                self.failed += 1
                log("failure on %s append %d: %r (expected %s)"
                    % (c.sid, c.i + 1, line[:200], "accept" if expect else "reject"))
            c.i += 1
            if ok and accepted and c.i < len(c.stream["appends"]):
                self.send_append(c)
            else:
                # A reject (or a failure) ends the stream, as it ends a
                # client's; appends never sent count as failed.
                self.failed += len(c.stream["appends"]) - c.i
                self.end_stream(c)
        elif c.state == "close":
            if words != [b"ok"]:
                raise BenchError("close %s: %r" % (c.sid, line))
            c.state = None
            c.streams_done += 1
            if c.lats:
                self.units.append({"p50": quantile(c.lats, 0.5),
                                   "p90": quantile(c.lats, 0.9)})
        else:
            raise BenchError("unsolicited response %r" % line)

    def run(self, more):
        """Drive every connection until [more(conn)] declines a new stream
        and nothing is in flight."""
        sel = selectors.DefaultSelector()
        for c in self.conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        self.began = time.perf_counter_ns()
        try:
            for c in self.conns:
                if more(c):
                    self.start_stream(c)
            while any(c.state is not None for c in self.conns):
                events = sel.select(TIMEOUT_S)
                if not events:
                    raise BenchError("no response within %.0f s" % TIMEOUT_S)
                for key, _ in events:
                    c = key.data
                    chunk = c.sock.recv(1 << 16)
                    now = time.perf_counter_ns()
                    if not chunk:
                        raise BenchError("compserve closed the connection")
                    c.buf += chunk
                    while b"\n" in c.buf:
                        line, c.buf = c.buf.split(b"\n", 1)
                        self.on_line(c, line, now)
                    if c.state is None and more(c):
                        self.start_stream(c)
        finally:
            sel.close()


def launch(work, window, spans=None):
    """Start a daemon and time it to its first answer: every connection's
    `open` acknowledged.  Returns the daemon, ready to serve, and the time."""
    d = Daemon(work, window, spans)
    try:
        for i, c in enumerate(d.conns):
            c.sendall(b"open probe%d\n" % i)
        for c in d.conns:
            buf = b""
            while b"\n" not in buf:
                chunk = c.recv(64)
                if not chunk:
                    raise BenchError("compserve closed the connection")
                buf += chunk
            if buf != b"ok\n":
                raise BenchError("open: %r" % buf)
        dt = time.perf_counter() - d.t0
        for i, c in enumerate(d.conns):
            c.sendall(b"close probe%d\n" % i)
            if c.recv(64) != b"ok\n":
                raise BenchError("close failed")
    except BaseException:
        d.close()
        raise
    return d, dt


def launches(work, window, n):
    times = []
    for _ in range(n):
        d, dt = launch(work, window)
        d.close()
        times.append(dt)
    return times


def serve_run(work, window, streams, seconds, spans=None):
    """Time SETUP_LAUNCHES daemon launches, half before and half after the
    measured phase, so that their median spans two moments of the machine.
    The middle launch serves: warm up with one stream per connection, then
    measure for [seconds]."""
    setup = launches(work, window, SETUP_LAUNCHES // 2)
    d, dt = launch(work, window, spans)
    setup.append(dt)
    try:
        warm = Drive(d, streams, traced=False)
        warm.run(lambda c: c.streams_done < 1)
        drive = Drive(d, streams, traced=spans is not None)
        # Continue the name sequences where the warm-up left them.
        for wc, mc in zip(warm.conns, drive.conns):
            mc.names = wc.names
        drive.next_stream = warm.next_stream
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        drive.run(lambda c: time.perf_counter_ns() < deadline)
    finally:
        rss = d.close()
    setup += launches(work, window, SETUP_LAUNCHES - len(setup))
    # Latency's unit of repetition is a whole stream: its appends sweep
    # every prefix length, so streams are alike where time slices are not.
    if not drive.completed:
        raise BenchError("no append completed")
    return {
        "setup_s": statistics.median(setup),
        "rss_mb": rss,
        "units": drive.units,
        "rate": drive.completed / ((drive.ended - drive.began) / 1e9),
        "attempted": warm.attempted + drive.attempted,
        "failed": warm.failed + drive.failed,
        "trace_latency_us": drive.trace_latency_us,
    }


# ---------------------------------------------------------------- batch client


def compcheck_pass(paths, expect):
    """One `compcheck -j 1 --progress` run over the corpus.  The progress
    line on stderr ticks as each file is decided; the ticks time each
    history from outside."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([COMPCHECK, "-j", "1", "--progress"] + paths,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out, err = b"", b""
    ticks = []
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ, "out")
    sel.register(proc.stderr, selectors.EVENT_READ, "err")
    open_pipes = 2
    try:
        while open_pipes:
            events = sel.select(TIMEOUT_S)
            if not events:
                raise BenchError("compcheck produced nothing for %.0f s" % TIMEOUT_S)
            now = time.perf_counter()
            for key, _ in events:
                chunk = os.read(key.fileobj.fileno(), 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    open_pipes -= 1
                elif key.data == "out":
                    out += chunk
                else:
                    err += chunk
                    done = err.count(b"files ")
                    ticks += [now] * (done - len(ticks))
    finally:
        sel.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    gaps = [(b - a) * 1e3 for a, b in zip(ticks, ticks[1:])]
    verdicts = {}
    for line in out.decode().splitlines():
        path, _, rest = line.partition(": ")
        verdicts[path] = rest
    failed = 0
    for p, e in zip(paths, expect):
        if verdicts.get(p) != "Comp-C: " + ("accept" if e else "reject"):
            failed += 1
            log("failure on %s: %r (expected %s)" % (p, verdicts.get(p), e))
    if proc.returncode >= 2 and failed == 0:
        failed = len(paths)
    return {
        "p50": quantile(gaps, 0.5),
        "p90": quantile(gaps, 0.9),
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "failed": failed,
    }


def compcheck_first_verdict(path, expect):
    """Seconds from launching `compcheck` on one file to its verdict line,
    and whether the verdict is the expected one."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([COMPCHECK, path], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    # A single-file run prints a `configuration:` line, then the verdict.
    line = b"configuration"
    while line.startswith(b"configuration"):
        line = proc.stdout.readline()
    dt = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    want = "accept" if expect else "reject"
    ok = line == b"Comp-C: %s\n" % want.encode() and code == (0 if expect else 1)
    if not ok:
        log("failure on %s: %r, exit %d (expected %s)" % (path, line, code, want))
    return dt, ok


def batch_run(work, inputs, seconds):
    paths = [os.path.join(work, e["path"]) for e in inputs["files"]]
    expect = [e["expect"] for e in inputs["files"]]
    compcheck_pass(paths[:2], expect[:2])  # warm the binary and page cache
    # Set-up: one launch on each of the first files, so the median spans
    # many inputs rather than one file's size; half before and half after
    # the passes, so it spans two moments of the machine.
    half = SETUP_LAUNCHES // 2
    firsts = [compcheck_first_verdict(p, e) for p, e in zip(paths[:half], expect)]
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(compcheck_pass(paths, expect))
    firsts += [compcheck_first_verdict(p, e)
               for p, e in zip(paths[half:SETUP_LAUNCHES], expect[half:])]
    return {
        "setup_s": statistics.median(dt for dt, _ in firsts),
        "rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "units": passes,
        "rate": len(paths) * len(passes) / sum(p["wall"] for p in passes),
        "attempted": len(firsts) + len(paths) * len(passes),
        "failed": sum(not ok for _, ok in firsts) + sum(p["failed"] for p in passes),
    }


# ---------------------------------------------------------------- spans


def self_time(span, children):
    """Duration minus the part of the span's interval its children cover."""
    lo, hi = span["start_us"], span["start_us"] + span["dur_us"]
    cuts = sorted((max(lo, c["start_us"]), min(hi, c["start_us"] + c["dur_us"]))
                  for c in children)
    covered, end = 0.0, lo
    for a, b in cuts:
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return (hi - lo) - covered


def span_layers(doc, client_latency_us):
    """Per-request layer times from a spans/1 document.  Each traced
    append is one trace: serve.decode (transport) -> serve.queue_wait
    (shard queue) -> engine.append (parented on the queue wait, but
    running after it) ; serve.encode (a sibling of the queue wait)."""
    by_trace = {}
    for s in doc["spans"]:
        by_trace.setdefault(s["trace"], []).append(s)
    rows = []
    for trace, spans in by_trace.items():
        names = {s["name"]: s for s in spans}
        if not all(n in names for n in
                   ("serve.decode", "serve.queue_wait", "serve.encode", "engine.append")):
            continue
        kids = {}
        for s in spans:
            kids.setdefault(s.get("parent"), []).append(s)
        self_of = {n: self_time(names[n], kids.get(names[n]["span"], []))
                   for n in ("serve.decode", "serve.queue_wait", "serve.encode",
                             "engine.append")}
        qw, enc = names["serve.queue_wait"], names["serve.encode"]
        # exec_append's own work (parse, seal, bookkeeping): the gap between
        # the queue wait and the encode, as a span whose child is the engine.
        gap = {"start_us": qw["start_us"] + qw["dur_us"],
               "dur_us": enc["start_us"] - (qw["start_us"] + qw["dur_us"])}
        exec_self = self_time(gap, [names["engine.append"]])
        lo = min(s["start_us"] for s in spans)
        hi = max(s["start_us"] + s["dur_us"] for s in spans)
        row = {
            "decode": self_of["serve.decode"],
            "queue_wait": self_of["serve.queue_wait"],
            "encode": self_of["serve.encode"],
            "engine": self_of["engine.append"],
            "exec_self": exec_self,
            "path": names["engine.append"].get("labels", {}).get("path", "?"),
        }
        client = client_latency_us.get(int(trace, 16))
        if client is not None:
            row["transport"] = client - (hi - lo)
        rows.append(row)
    if not rows:
        raise BenchError("no complete append traces in the span dump")
    col = lambda k: [r[k] for r in rows if k in r]
    m = {
        "serve.exec_self_us.p50": quantile(col("exec_self"), 0.5),
        "serve.exec_self_us.p90": quantile(col("exec_self"), 0.9),
        "engine.append_us.p50": quantile(col("engine"), 0.5),
        "engine.append_us.p90": quantile(col("engine"), 0.9),
        "serve.queue_wait_us.p50": quantile(col("queue_wait"), 0.5),
        "serve.queue_wait_us.p90": quantile(col("queue_wait"), 0.9),
        "serve.decode_us.p50": quantile(col("decode"), 0.5),
        "serve.encode_us.p50": quantile(col("encode"), 0.5),
        "transport_us.p50": quantile(col("transport"), 0.5),
    }
    for p in PATHS:
        m["engine.path_share." + p] = sum(r["path"] == p for r in rows) / len(rows)
    return m


# ---------------------------------------------------------------- main


def unit_mean(res, key):
    """Mean over the run's streams (serve) or corpus passes (batch).  The
    machine's speed drifts in phases of seconds, each unit falls in one or
    two of them, and a mean follows the share of slow units smoothly
    where a median of few units jumps between the fast and the slow
    ones."""
    if not res["units"]:
        raise BenchError("no append completed")
    return statistics.fmean(x[key] for x in res["units"])


def end_to_end(res):
    mean = lambda k: unit_mean(res, k)
    return {
        "setup_s": res["setup_s"],
        "appends_per_s": res["rate"],
        "histories_per_s": res["rate"],
        "append_p50_ms": mean("p50"),
        "append_p90_ms": mean("p90"),
        "peak_rss_mb": res["rss_mb"],
    }


def declared(kind):
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def per_layer(workload, seed, inputs, work, seconds):
    streams = streams_of(workload, inputs)
    window = inputs["window"]
    # The untraced and the traced phase share the run's time, so a traced
    # run takes as long as an untraced one.
    plain = serve_run(work, window, streams, seconds / 2)
    spans_path = os.path.join(work, "spans.json")
    traced = serve_run(work, window, streams, seconds / 2, spans=spans_path)
    with open(spans_path) as f:
        metrics = span_layers(json.load(f), traced["trace_latency_us"])
    metrics["trace.overhead_ratio"] = (unit_mean(traced, "p50")
                                       / unit_mean(plain, "p50"))
    out = subprocess.run([PERFGEN, "replay", workload, str(seed),
                          str(REPLAY_STREAMS[workload])],
                         check=True, stdout=subprocess.PIPE)
    metrics.update(json.loads(out.stdout))
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics["error_rate"] = failed / attempted
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(".perfbench", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        inputs = generate(args.workload, args.seed, work)
        rec = record(args.workload, inputs)
        print("# inputs " + json.dumps(rec, sort_keys=True), flush=True)
        if args.trace:
            attempted, failed, values = per_layer(args.workload, args.seed, inputs,
                                                  work, args.seconds)
        else:
            if args.workload == "batch":
                res = batch_run(work, inputs, args.seconds)
            else:
                res = serve_run(work, inputs["window"],
                                streams_of(args.workload, inputs), args.seconds)
            attempted, failed = res["attempted"], res["failed"]
            values = end_to_end(res)
            log("error_rate %.6f (%d of %d)" % (failed / attempted, failed, attempted))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise BenchError("metrics %s differ from BENCHMARK.json's %s"
                         % (sorted(values), sorted(units)))
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k in sorted(metrics):
        log("%-36s %14.6g %s" % (k, metrics[k]["value"], metrics[k]["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
