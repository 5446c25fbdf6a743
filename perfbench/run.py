#!/usr/bin/env python3
"""End-to-end benchmark of the signalc compiler and runtime.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a signalc source tree. The first run configures and
builds the `signalc` compiler (Release, that target only) under
$CARGO_TARGET_DIR (default `.bench_build`); later runs reuse that build.
Every file the benchmark writes stays under that directory.

Workloads (each one program, one unit operation a user waits for):

  stopwatch-replay  `signalc --builtin STOPWATCH --replay TRACE` on a
                    recorded 10k-instant trace: process start, compile,
                    trace decode, VM execution, output verification.
                    STOPWATCH is the largest builtin (~800 bytecode
                    instructions executed per instant), so the op is
                    dominated by the interpreter.
  watch-native      `signalc --builtin WATCH --native auto --simulate 50000`
                    against a warm compiled-step cache: hash, cache hit,
                    dlopen, native execution, output formatting. Set-up is
                    the cold start: the same run into an empty cache, so
                    C emission and the host cc are timed.
  fig5-serve        sessions of 16384 instants against one
                    `signalc --builtin FIG5_ALARM --serve SOCK` server,
                    from one closed-loop client (the next session starts
                    when the previous response is complete). FIG5 is tiny,
                    so the op is dominated by the session front end:
                    socket I/O, frame decode/encode, the scheduler's
                    wakeup per 64-instant batch. One client already keeps
                    the single-threaded server busy; more clients added
                    queueing, not throughput, and made runs bimodal.

End-to-end metrics (--trace 0), for every workload:

  op_ms            typical latency of the unit operation: the mean of the
                   middle half of the samples (see interquartile_mean)
  op_p90_ms        90th percentile of the same samples
  instants_per_s   instants executed per second of operation wall time
  setup_s          median of 3 set-ups in the run (record the stimulus
                   traces; serve also starts the server until it serves;
                   watch-native: a cold start, host cc included)

Per-layer metrics (--trace 1), for every workload, on its program:

  spawn_ms                 process start (`signalc --help`)
  compile_ms               parse through bytecode, self time (compile-only
                           run minus spawn; FIG5's is near the resolution)
  emit_c_ms                C emission self time (--emit-c minus compile)
  emitted_c_lines          size of the emitted C (what the host cc reads)
  instrs_per_instant       bytecode instructions executed per instant
  guard_tests_per_instant  clock guard tests per instant
  exec_cpu_us_per_instant  CPU per executed instant outside compilation
                           (serve: server CPU over instants served)
  op_cpu_ms                program CPU per op (serve: server CPU per
                           session); op_ms minus this is time spent waiting

Correctness: every recorded stimulus is first re-simulated with the flat
StepExecutor engine (`--mode flat`, which interprets the step program, not
the bytecode), and its output must equal the recording's. Replays must
report every output matching; native runs must print the flat engine's
output byte for byte and report a warm cache hit; every serve response
must be a Hello frame followed by exactly the outputs-only trace derived
from the stimulus (see sgtr.py).

The last stdout line is the JSON result. With --trace 1 the spans (one per
layer call, with parent and op ids) are written to
$CARGO_TARGET_DIR/perfbench-traces/<workload>-<seed>.json.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing next to the sources
sys.path.insert(0, str(Path(__file__).resolve().parent))
import sgtr  # noqa: E402

OP_TIMEOUT_S = 120
SETUPS = 3
PROBE_REPS = 25
SESSIONS_PER_CPU = 5

STATS_RE = re.compile(
    rb"stats: mode=\S+ instants=(\d+) executed=(\d+) guard_tests=(\d+)")
TIER_RE = re.compile(
    rb"stats: tier native=\S+ cache=(\w+) vm_instants=(\d+) "
    rb"native_instants=(\d+)")


class BenchError(Exception):
    """A failure that leaves no result to report."""


#===----------------------------------------------------------------------===#
# Build
#===----------------------------------------------------------------------===#


def build(root):
    """Configures (once) and builds signalc; returns its path and the
    build root."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"{root} is not a signalc source tree "
                         "(no CMakeLists.txt or src/)")
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "signalc-release"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DSIGNALC_BUILD_TESTS=OFF", "-DSIGNALC_BUILD_BENCH=OFF",
                      "-DSIGNALC_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "signalc",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    exe = build_dir / "signalc"
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe, build_root


#===----------------------------------------------------------------------===#
# Tracing
#===----------------------------------------------------------------------===#


class Tracer:
    """In-memory spans (name, start, end, parent, op), written at the end.

    Disabled for --trace 0, so end-to-end numbers are measured untraced.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans) + 1, "parent": parent, "name": name,
               "start": time.perf_counter(), **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                 for s in self.spans]
        path.write_text(json.dumps({"spans": spans}, indent=1) + "\n")


#===----------------------------------------------------------------------===#
# Running signalc
#===----------------------------------------------------------------------===#


class Proc:
    """One finished signalc process."""

    def __init__(self, code, out, err, wall, cpu):
        self.code, self.out, self.err = code, out, err
        self.wall, self.cpu = wall, cpu

    def stats(self):
        """(instants, executed, guard_tests) from --stats, or None."""
        m = STATS_RE.search(self.err)
        return tuple(int(g) for g in m.groups()) if m else None

    def tier(self):
        """(cache, vm_instants, native_instants) from --stats, or None."""
        m = TIER_RE.search(self.err)
        return (m.group(1), int(m.group(2)), int(m.group(3))) if m else None


class Signalc:
    def __init__(self, exe, work):
        self.exe = str(exe)
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        # The host cc and any default cache stay inside the work directory.
        self.env = dict(os.environ, TMPDIR=str(tmp),
                        XDG_CACHE_HOME=str(work / "xdg-cache"))

    def args(self, args):
        return [self.exe] + [str(a) for a in args]

    def run(self, args, stdout_path=None):
        """Runs signalc to completion; wall and CPU time (its children's
        included) are measured around exactly this process."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with contextlib.ExitStack() as stack:
            out = (stack.enter_context(open(stdout_path, "wb"))
                   if stdout_path else subprocess.PIPE)
            t0 = time.perf_counter()
            try:
                p = subprocess.run(self.args(args), stdout=out,
                                   stderr=subprocess.PIPE, env=self.env,
                                   timeout=OP_TIMEOUT_S)
                code, stdout, stderr = p.returncode, p.stdout, p.stderr
            except subprocess.TimeoutExpired as e:
                code, stdout, stderr = -1, e.stdout, (e.stderr or b"") + \
                    b"\nperfbench: timed out"
            wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime +
               after.ru_stime - before.ru_stime)
        return Proc(code, stdout or b"", stderr or b"", wall, cpu)

    def spawn(self, args, log_path):
        """Starts a long-lived signalc. Its stderr goes to a file: the
        server logs a line per session, which would fill an unread pipe
        and block it, and start_server watches the file."""
        with open(log_path, "wb") as log:
            return subprocess.Popen(self.args(args), stdout=subprocess.DEVNULL,
                                    stderr=log, env=self.env)


ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))


def rotate_cpu(pid, i):
    """Pins `pid` (0: this process, whose children inherit it) to the i-th
    allowed CPU, round robin. The CPUs of a shared host differ in speed by
    up to 1.5x for seconds at a time, and a process stays near the CPU it
    started on, so an unpinned run measures whichever CPUs it landed on;
    rotating makes every run sample all of them equally."""
    cpus = sorted(ALLOWED_CPUS)
    set_cpus(pid, {cpus[i % len(cpus)]})


def set_cpus(pid, cpus):
    """Affinity is only a steadier; where the host refuses it (a sandbox,
    a CPU taken away mid-run), the run goes on unpinned."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(pid, cpus)


def interquartile_mean(xs):
    """Mean of the middle half of `xs`.

    On a shared host an op's latency is bimodal: a process runs at full
    speed or, while a neighbour contends for its core, ~30% slower for its
    whole life. The median jumps from one mode to the other as their mix
    shifts a little from run to run; this moves in proportion to the mix
    and, like the median, ignores stray outliers."""
    xs = sorted(xs)
    q = len(xs) // 4
    return statistics.fmean(xs[q:len(xs) - q])


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


#===----------------------------------------------------------------------===#
# Shared bookkeeping
#===----------------------------------------------------------------------===#


class Run:
    """State of one benchmark run: inputs, counters, samples."""

    def __init__(self, args, signalc, work, tracer):
        self.rng = random.Random(args.seed)
        self.seconds = args.seconds
        self.sc = signalc
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setups = []         # seconds per set-up
        self.latencies = []      # seconds per successful op
        self.op_cpu = []         # program CPU seconds per op, where known
        self.instants = 0        # instants executed by successful ops
        self.busy = 0.0          # wall seconds the throughput divides by
        self.counts = None       # (instants, executed, guard_tests)
        self.exec_cpu_per_instant = None
        self.references = {}     # (builtin, instants, seed) -> stdout

    def new_seed(self):
        return self.rng.randrange(1, 2**31)

    def expect(self, ok, what, proc=None):
        """Counts one attempted operation; a failure is recorded, not raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            detail = proc.err.decode(errors="replace")[-400:] if proc else ""
            if len(self.problems) < 5:
                self.problems.append(f"{what}: {detail}".strip())
        return ok

    def require(self, ok, what, proc=None):
        """A check the rest of the run depends on."""
        if not self.expect(ok, what, proc):
            raise BenchError(self.problems[-1])

    def op(self, ok, what, proc, instants):
        if self.expect(ok, what, proc):
            self.latencies.append(proc.wall)
            self.op_cpu.append(proc.cpu)
            self.instants += instants
            self.busy += proc.wall

    def record_stimulus(self, builtin, instants, seed, path):
        """Records one stimulus trace (--stats on); returns the run."""
        with self.tracer.span("setup.record", seed=seed):
            rec = self.sc.run(["--builtin", builtin, "--simulate", instants,
                               "--seed", seed, "--record", path, "--stats"])
        self.require(rec.code == 0, f"record {builtin} seed {seed}", rec)
        return rec

    def reference(self, builtin, instants, seed):
        """stdout of the flat StepExecutor engine for one simulation."""
        key = (builtin, instants, seed)
        if key not in self.references:
            with self.tracer.span("reference.flat", seed=seed):
                ref = self.sc.run(["--builtin", builtin, "--simulate",
                                   instants, "--seed", seed, "--mode", "flat"])
            self.require(ref.code == 0, f"flat reference {builtin}", ref)
            self.references[key] = ref.out
        return self.references[key]

    def check_reference(self, builtin, instants, seed, out):
        self.require(out == self.reference(builtin, instants, seed),
                     f"{builtin} seed {seed}: output differs from the flat "
                     "reference engine")

    def deadline(self):
        return time.perf_counter() + self.seconds

    def end_to_end(self):
        if len(self.latencies) < 2:
            raise BenchError("fewer than two operations completed: " +
                             "; ".join(self.problems))
        ms = [s * 1e3 for s in self.latencies]
        return {
            "op_ms": (interquartile_mean(ms), "ms"),
            "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
            "instants_per_s": (self.instants / self.busy, "1/s"),
            "setup_s": (statistics.median(self.setups), "s"),
        }

    def per_layer(self, builtin):
        """Layer probes on `builtin`, plus the counters the ops gathered.

        Each probe round runs `--help`, compile-only and `--emit-c` back to
        back; a layer's self time is the median over rounds of the
        difference within a round. Host speed drifts over seconds, so
        pairing inside a round cancels it where separate medians would
        not."""
        spawn, comp, emit = [], [], []
        for _ in range(PROBE_REPS):
            with self.tracer.span("layer.spawn"):
                spawn.append(self.sc.run(["--help"]))
            with self.tracer.span("layer.compile", builtin=builtin):
                comp.append(self.sc.run(["--builtin", builtin]))
            with self.tracer.span("layer.emit_c", builtin=builtin):
                emit.append(self.sc.run(["--builtin", builtin, "--emit-c"]))
        for p in spawn + comp + emit:
            self.require(p.code == 0, "layer probe", p)

        def self_ms(outer, inner):
            return statistics.median(
                o.wall - i.wall for o, i in zip(outer, inner)) * 1e3

        if self.exec_cpu_per_instant is None:
            # Each op compiled once; the rest of its CPU was execution.
            per_op = statistics.median(self.op_cpu) - statistics.median(
                p.cpu for p in comp)
            self.exec_cpu_per_instant = per_op * len(self.latencies) / \
                self.instants
        instants, executed, guards = self.counts
        return {
            "spawn_ms": (statistics.median(p.wall for p in spawn) * 1e3,
                         "ms"),
            "compile_ms": (self_ms(comp, spawn), "ms"),
            "emit_c_ms": (self_ms(emit, comp), "ms"),
            "emitted_c_lines": (emit[0].out.count(b"\n"), "count"),
            "instrs_per_instant": (executed / instants, "count"),
            "guard_tests_per_instant": (guards / instants, "count"),
            "exec_cpu_us_per_instant": (self.exec_cpu_per_instant * 1e6,
                                        "us"),
            "op_cpu_ms": (statistics.median(self.op_cpu) * 1e3, "ms"),
        }


#===----------------------------------------------------------------------===#
# Workloads
#===----------------------------------------------------------------------===#


def stopwatch_replay(run):
    builtin, instants = "STOPWATCH", 10_000
    traces = []
    for i in range(SETUPS):
        path = run.work / f"stopwatch-{i}.sgtr"
        seed = run.new_seed()
        rec = run.record_stimulus(builtin, instants, seed, path)
        run.setups.append(rec.wall)
        run.check_reference(builtin, instants, seed, rec.out)
        traces.append((path, rec.stats()))

    expect_line = f"replay ({instants} instants, mmap): ".encode()
    deadline = run.deadline()
    i = 0
    while time.perf_counter() < deadline:
        path, rec_stats = traces[i % len(traces)]
        rotate_cpu(0, i)
        with run.tracer.span("op.replay", op=i):
            p = run.sc.run(["--builtin", builtin, "--replay", path,
                            "--stats"])
        # The replay re-executes the recording's stimulus, so its counters
        # must equal the recording run's.
        ok = (p.code == 0 and p.out.startswith(expect_line)
              and p.out.rstrip().endswith(b"match the trace")
              and p.stats() == rec_stats)
        run.op(ok, f"replay {path.name}", p, instants)
        run.counts = run.counts or p.stats()
        i += 1
    set_cpus(0, ALLOWED_CPUS)
    return builtin


def watch_native(run):
    builtin, instants = "WATCH", 50_000
    cache = run.work / "native-cache"
    out = run.work / "native.out"
    seeds = [run.new_seed() for _ in range(SETUPS)]
    refs = {}
    for s in seeds:
        refs[s] = hashlib.sha256(run.reference(builtin, instants, s)) \
            .hexdigest()

    def native(mode, seed, span, **attrs):
        with run.tracer.span(span, seed=seed, **attrs):
            p = run.sc.run(["--builtin", builtin, "--native", mode,
                            "--cache-dir", cache, "--simulate", instants,
                            "--seed", seed, "--stats"], stdout_path=out)
        same = p.code == 0 and file_digest(out) == refs[seed]
        return p, same

    # A cold start takes ~15 s, so the run is about a minute long. Warm
    # starts run in one slice after each cold start, not all at the end:
    # their samples then span the whole minute, and the host's speed drift
    # over it averages out instead of deciding the run.
    i = 0
    for s in seeds:
        shutil.rmtree(cache, ignore_errors=True)
        p, same = native("force", s, "setup.cold_start")
        run.require(same and p.tier() == (b"miss", 0, instants),
                    f"cold native start seed {s}", p)
        run.setups.append(p.wall)

        deadline = time.perf_counter() + run.seconds / SETUPS
        while time.perf_counter() < deadline:
            w = seeds[i % len(seeds)]
            rotate_cpu(0, i)
            p, same = native("auto", w, "op.warm_start", op=i)
            run.op(same and p.tier() == (b"hit", 0, instants),
                   f"warm native start seed {w}", p, instants)
            run.counts = run.counts or p.stats()
            i += 1
        set_cpus(0, ALLOWED_CPUS)
    return builtin


def children_cpu_seconds():
    """utime + stime of every child reaped so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def start_server(run, builtin, sock, log_path):
    """Starts `--serve` in the current directory; returns once it logs that
    it is serving, which it does after listen() and after installing its
    SIGTERM handler (a connection can be accepted before the handler is in
    place)."""
    server = run.sc.spawn(["--builtin", builtin, "--serve", sock], log_path)
    give_up = time.perf_counter() + 30
    while b"serving " not in log_path.read_bytes():
        if server.poll() is not None or time.perf_counter() > give_up:
            stop_server(server)
            raise BenchError("server did not come up: " +
                             log_path.read_text(errors="replace"))
        time.sleep(0.0002)
    return server


def stop_server(server):
    """SIGTERM drains the server; returns its exit code."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    return server.returncode


def serve_session(sock, stimulus, expected):
    """One session: send the stimulus, read the response through EOF.
    MSG_WAITALL keeps the client asleep while the server streams the
    response frame by frame. Returns (response correct, seconds)."""
    want = sgtr.HELLO_BYTES + len(expected)
    t0 = time.perf_counter()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                     struct.pack("ll", OP_TIMEOUT_S, 0))
        s.connect(sock)
        s.sendall(stimulus)
        resp = s.recv(want, socket.MSG_WAITALL)
        eof = s.recv(1) == b""
    wall = time.perf_counter() - t0
    return eof and sgtr.split_hello(resp) == expected, wall


def fig5_serve(run):
    builtin, instants, stimuli = "FIG5_ALARM", 16_384, 8
    # A socket path holds at most 107 bytes, which a checkout's absolute
    # path can exceed: server and client both use a bare name in the work
    # directory. Every other path here is absolute.
    sock = "serve.sock"
    log = run.work / "server.log"
    seeds = [run.new_seed() for _ in range(stimuli)]
    paths = [run.work / f"fig5-{i}.sgtr" for i in range(stimuli)]

    home = os.getcwd()
    os.chdir(run.work)
    server = code = None
    try:
        for k in range(SETUPS):
            if server:
                run.require(stop_server(server) == 0, "server drain exit")
            with run.tracer.span("setup.serve", round=k):
                recs = [run.record_stimulus(builtin, instants, s, p)
                        for s, p in zip(seeds, paths)]
                t0 = time.perf_counter()
                with run.tracer.span("setup.server_start"):
                    server = start_server(run, builtin, sock, log)
                started = time.perf_counter() - t0
            run.setups.append(sum(r.wall for r in recs) + started)
        for s, r in zip(seeds, recs):
            run.check_reference(builtin, instants, s, r.out)
        run.counts = recs[0].stats()
        stim = [p.read_bytes() for p in paths]
        expected = [sgtr.expected_response(b) for b in stim]

        # The server lives for the whole run: move it every few sessions.
        # It is the only child reaped from here on, so the children's CPU
        # grows by exactly its CPU once it has been stopped.
        cpu0 = children_cpu_seconds()
        deadline = run.deadline()
        i = 0
        while time.perf_counter() < deadline:
            if i % SESSIONS_PER_CPU == 0:
                rotate_cpu(server.pid, i // SESSIONS_PER_CPU)
            with run.tracer.span("op.session", op=i):
                try:
                    ok, wall = serve_session(sock, stim[i % stimuli],
                                             expected[i % stimuli])
                    why = "wrong or missing response"
                except OSError as e:
                    ok, wall, why = False, 0.0, str(e)
            if run.expect(ok, f"session {i}: {why}"):
                run.latencies.append(wall)
                run.instants += instants
                run.busy += wall
            i += 1
    finally:
        if server:
            code = stop_server(server)
        os.chdir(home)
    server_cpu = children_cpu_seconds() - cpu0
    run.require(code == 0, f"server exited {code}: " +
                log.read_text(errors="replace")[-400:])
    if not run.latencies:
        raise BenchError("no session completed: " + "; ".join(run.problems))
    run.exec_cpu_per_instant = server_cpu / run.instants
    run.op_cpu = [server_cpu / len(run.latencies)]
    return builtin


WORKLOADS = {
    "stopwatch-replay": stopwatch_replay,
    "watch-native": watch_native,
    "fig5-serve": fig5_serve,
}


#===----------------------------------------------------------------------===#
# Entry point
#===----------------------------------------------------------------------===#


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    try:
        exe, build_root = build(root)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    work = build_root / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer(args.trace == 1)
    run = Run(args, Signalc(exe, work), work, tracer)
    try:
        with tracer.span("run", workload=args.workload, seed=args.seed):
            builtin = WORKLOADS[args.workload](run)
            metrics = (run.per_layer(builtin) if args.trace
                       else run.end_to_end())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        out = build_root / "perfbench-traces" / \
            f"{args.workload}-{args.seed}.json"
        tracer.write(out)
        print(f"perfbench: {len(tracer.spans)} spans in {out}",
              file=sys.stderr)
    for p in run.problems:
        print(f"perfbench: failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
