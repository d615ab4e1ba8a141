#!/usr/bin/env python3
"""The repository benchmark: LeHDC models fitted, saved and served over
loopback TCP under open-loop load, measured end to end and by layer.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a source tree. The first run builds `lehdc_serve`
and `perfbench_harness` into .bench_build/ (perfbench/CMakeLists.txt).
Workload parameters live in perfbench/workloads.json.

One run is: set-up SETUP_REPS times (generate the profile from the seed,
core::Pipeline::fit with LeHDC, save the bundle, start `lehdc_serve serve`
and wait for its first answer; the median is setup_s), then with
--trace 0 a fixed low-rate and a fixed high-rate phase. With --trace 1
the run instead measures the high phase untraced and a capacity ladder,
then the low and high phases again against servers started with
--metrics-out and a client recording spans, then probes
Pipeline::evaluate at each phase's mean batch size; it prints the
per-layer metrics. The last line of stdout is the result object.
"""

import argparse
import json
import math
import os
import platform
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
RUNS = ROOT / ".bench_build" / "runs"
HARNESS = BUILD / "perfbench_harness"
SERVER = BUILD / "lehdc" / "tools" / "lehdc_serve"

# Either variable silently changes the program being measured.
FORBIDDEN_ENV = ("LEHDC_ENCODE_PATH", "LEHDC_THREADS")

# The same for every workload; workloads.json holds what differs.
SETUP_REPS = 3          # set-ups per run; setup_s is their median
TEST_SAMPLES = 500      # test split, which is also the request pool
CONNS = 4               # client connections, one client thread
PHASE_WARMUP_S = 0.5    # untimed requests before each fixed-rate phase
LADDER_FACTOR = 1.25    # geometric step of the capacity ladder
LADDER_MAX_STEPS = 6
LADDER_REFINE = 2       # bisections once the outcome flips
LADDER_STEP_S = 1.6     # timed seconds per ladder step (less if the
LADDER_WARMUP_S = 0.3   # ladder's share of --seconds is smaller)

# Arrival schedules are seeded by phase identity, so the same phase gets
# the same Poisson sequence whatever ran before it. The traced run's
# untraced reference is the high phase again, with the high seed.
PHASE_SEED = {"low": 1, "high": 2}
LADDER_SEED = 100       # + the step's number


class BenchError(RuntimeError):
    pass


class Spans:
    """The benchmark's own spans around its calls into each layer, kept in
    memory and written when the run ends."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.rows = []

    def span(self, name, parent=-1):
        return _Span(self, name, parent)

    def write(self, path):
        if self.enabled:
            with open(path, "w", encoding="ascii") as out:
                out.write("id,parent,name,start_ns,end_ns\n")
                for i, (name, parent, start, end) in enumerate(self.rows):
                    out.write(f"{i},{parent},{name},{start},{end}\n")


class _Span:
    def __init__(self, spans, name, parent):
        self.spans, self.name, self.parent, self.id = spans, name, parent, -1

    def __enter__(self):
        self.start = time.monotonic_ns()
        if self.spans.enabled:
            self.id = len(self.spans.rows)
            self.spans.rows.append((self.name, self.parent, self.start, 0))
        return self

    def __exit__(self, *exc):
        self.seconds = (time.monotonic_ns() - self.start) * 1e-9
        if self.id >= 0:
            name, parent, start, _ = self.spans.rows[self.id]
            self.spans.rows[self.id] = (name, parent, start,
                                        time.monotonic_ns())
        return False


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench_harness", "lehdc_serve"])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                raise BenchError(f"build failed; see {log}")


def harness(*args):
    """Runs perfbench_harness and returns its JSON answer."""
    done = subprocess.run([str(HARNESS), *map(str, args)],
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise BenchError(f"perfbench_harness {args[0]} failed: "
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def first_request(pool_path, tenant):
    """One v2 request frame for the pool's first sample."""
    with open(pool_path, "rb") as f:
        magic, _, features, _ = struct.unpack("<4sIII", f.read(16))
        if magic != b"PBRQ":
            raise BenchError(f"bad request pool {pool_path}")
        row = f.read(4 * features)
    t = tenant.encode()
    payload = (struct.pack("<QQH", 1, 0, len(t)) + t
               + struct.pack("<I", features) + row)
    return b"LSR2" + struct.pack("<I", len(payload)) + payload


class Server:
    """A `lehdc_serve serve` process on a loopback TCP port."""

    def __init__(self, workload, bundle, out_dir, metrics_out=None):
        self.port = free_port()
        models = ",".join(f"{t}={bundle}" for t in workload["tenants"])
        cmd = [str(SERVER), "serve", "--models", models,
               "--tcp", f"127.0.0.1:{self.port}", *workload["server_flags"]]
        if metrics_out:
            cmd += ["--metrics-out", str(metrics_out)]
        self.metrics_out = metrics_out
        self.log = open(out_dir / f"server-{self.port}.log", "w",
                        encoding="utf-8")
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_first_answer(self, pool_path, tenant, timeout_s=60.0):
        frame = first_request(pool_path, tenant)
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"lehdc_serve exited ({self.proc.returncode})"
                                 f"; see {self.log.name}")
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=timeout_s) as s:
                    s.sendall(frame)
                    header = _recv_exact(s, 8)
                    size = struct.unpack("<I", header[4:])[0]
                    payload = _recv_exact(s, size)
                    if header[:4] != b"LSS2" or payload[8] != 0:
                        raise BenchError("first request was not answered ok")
                    return
            except (ConnectionRefusedError, ConnectionResetError):
                if time.monotonic() > deadline:
                    raise BenchError("lehdc_serve did not come up") from None
                time.sleep(0.01)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for lehdc_serve")

    def stop(self):
        """SIGTERM, wait, and return the metrics snapshot if one was
        asked for."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"lehdc_serve exited {self.proc.returncode}")
        if self.metrics_out:
            with open(self.metrics_out, encoding="utf-8") as f:
                return json.load(f)
        return None


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionResetError
        data += chunk
    return data


def counter(snapshot, name):
    for c in snapshot.get("counters", []):
        if c["name"] == name:
            return c["value"]
    return 0


class Run:
    def __init__(self, name, workload, seed, seconds, trace):
        self.name, self.w, self.seed = name, workload, seed
        self.seconds, self.trace = seconds, trace
        self.dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spans = Spans(trace)
        self.servers = []
        self.phase_index = 0
        self.relabeled = 0
        self.checks = []

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Sets up SETUP_REPS times; keeps the last server running."""
        reps = []
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            rep_dir = self.dir / f"setup{rep}"
            rep_dir.mkdir(exist_ok=True)
            with self.spans.span("setup") as total:
                args = ["prepare", "--profile", self.w["profile"],
                        "--train", self.w["train"], "--test", TEST_SAMPLES,
                        "--dim", self.w["dim"], "--epochs", self.w["epochs"],
                        "--seed", self.seed, "--out-dir", rep_dir]
                if self.trace and last:
                    args += ["--spans", rep_dir / "spans.csv"]
                with self.spans.span("setup.prepare", total.id) as prep:
                    fit = harness(*args)
                server = Server(self.w, rep_dir / "model.lhdp", self.dir)
                self.servers.append(server)
                with self.spans.span("setup.server_ready", total.id) as ready:
                    server.wait_first_answer(rep_dir / "requests.bin",
                                             self.w["tenants"][0])
            fit.update(setup_s=total.seconds, prepare_s=prep.seconds,
                       server_ready_s=ready.seconds)
            reps.append(fit)
            self.check(abs(fit["eval_accuracy"] - fit["fit_test_accuracy"])
                       < 1e-12, "Pipeline::evaluate accuracy equals "
                       "FitReport.test_accuracy")
            if not last:
                self.servers.pop().stop()
        with open(self.dir / "setup.json", "w", encoding="utf-8") as f:
            json.dump(reps, f, indent=1)
        self.bundle_dir = self.dir / f"setup{SETUP_REPS - 1}"
        self.fit = reps[-1]
        self.setup_reps = reps

    def median(self, key):
        return statistics.median(r[key] for r in self.setup_reps)

    @property
    def online(self):
        return "--online" in self.w["server_flags"]

    @property
    def feedback_tenant(self):
        """Index of the tenant that sends feedback: the last one, when the
        workload sends any."""
        return len(self.w["tenants"]) - 1 if self.w["feedback_every"] else -1

    # -- phases ------------------------------------------------------------

    def client(self, server, rate, seed, warmup_s, seconds, drain_s, traced):
        """One open-loop phase against `server`; returns its summary."""
        self.phase_index += 1
        out = self.dir / f"phase{self.phase_index}.csv"
        args = ["client", "--port", server.port,
                "--requests", self.bundle_dir / "requests.bin",
                "--tenants", ",".join(self.w["tenants"]),
                "--conns", CONNS, "--rate", f"{rate:.6f}",
                "--warmup-s", warmup_s, "--seconds", seconds,
                "--seed", self.seed * 1000 + seed,
                "--id-base", self.phase_index << 32, "--drain-s", drain_s,
                "--feedback-every", self.w["feedback_every"],
                "--feedback-tenant", self.feedback_tenant,
                "--rotate", self.w["relabel_rotation"], "--out", out]
        if traced:
            args += ["--spans", self.dir / f"phase{self.phase_index}-spans.csv"]
        answer = harness(*args)
        if answer["protocol_errors"]:
            self.check(False, "every response frame decodes")
        self.relabeled += answer["relabeled"]
        requests, feedbacks = stats.load_records(out)
        return stats.phase_summary(requests, feedbacks, seconds)

    def fixed_phase(self, server, which, traced=False):
        with self.spans.span(f"phase.{which}"):
            summary = self.client(
                server, self.w[f"{which}_rps"], PHASE_SEED[which],
                PHASE_WARMUP_S, self.seconds * self.w["phase_share"][which],
                max(2.0, 4 * self.w["p99_limit_ms"] / 1e3), traced)
        lag = summary["lag_p99"]
        if lag > self.w["lag_bound_ms"]:
            raise BenchError(
                f"invalid run: generator lag p99 {lag:.3f} ms exceeds the "
                f"{self.w['lag_bound_ms']} ms bound in the {which} phase")
        return summary

    def ladder(self, server):
        cfg = self.w["ladder"]
        budget = self.seconds * self.w["phase_share"]["ladder"]
        step_s = min(LADDER_STEP_S,
                     budget / (LADDER_MAX_STEPS + LADDER_REFINE))
        step_number = 0

        def measure(rate):
            nonlocal step_number
            step_number += 1
            s = self.client(server, rate, LADDER_SEED + step_number,
                            LADDER_WARMUP_S, step_s, cfg["drain_s"], False)
            failed = sum(s["counts"].values())
            return stats.StepResult(
                stats.step_passes(s["lat"]["p99"], self.w["p99_limit_ms"],
                                  failed, s["backlog"], rate),
                s["achieved_rps"])

        with self.spans.span("phase.ladder"):
            capacity, steps_run = stats.find_capacity(
                measure, cfg["start_rps"], LADDER_FACTOR, LADDER_MAX_STEPS,
                LADDER_REFINE)
        self.ladder_steps = [(round(r, 1), s.passed) for r, s in steps_run]
        return capacity

    def check(self, ok, what):
        self.checks.append((what, bool(ok)))

    # -- the two kinds of run ----------------------------------------------

    def fit_rate(self, fit_s):
        return self.fit["train_count"] * self.fit["epochs_run"] / fit_s

    def untraced(self):
        server = self.servers[-1]
        low = self.fixed_phase(server, "low")
        high = self.fixed_phase(server, "high")
        rss = server.peak_rss_mb()
        self.servers.pop().stop()
        if self.online:
            self.check(self.relabeled > 0, "online.flips > 0 (the learner "
                       "tenant's labels moved off the saved bundle)")
        self.phases = {"low": low, "high": high}
        return {
            "lat_p50_ms.low": (low["lat"]["p50"], "ms"),
            "lat_p99_ms.low": (low["lat"]["p99"], "ms"),
            "lat_p50_ms.high": (high["lat"]["p50"], "ms"),
            "lat_p99_ms.high": (high["lat"]["p99"], "ms"),
            "test_accuracy": (self.fit["fit_test_accuracy"], "fraction"),
            "setup_s": (self.median("setup_s"), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }

    def traced(self):
        # Untraced reference for the overhead: the set-up's server, no
        # snapshot, no client spans. The capacity ladder runs on it too.
        server = self.servers[-1]
        reference = self.fixed_phase(server, "high")
        capacity = self.ladder(server)
        self.servers.pop().stop()
        snapshots, phases = {}, {}
        for which in ("low", "high"):
            server = Server(self.w, self.bundle_dir / "model.lhdp", self.dir,
                            metrics_out=self.dir / f"metrics-{which}.json")
            self.servers.append(server)
            server.wait_first_answer(self.bundle_dir / "requests.bin",
                                     self.w["tenants"][0])
            phases[which] = self.fixed_phase(server, which, traced=True)
            snapshots[which] = self.servers.pop().stop()
        low, high = phases["low"], phases["high"]
        self.phases = {**phases, "high_untraced": reference}
        batches = [max(1, round(low["batch_mean"])),
                   max(1, round(high["batch_mean"]))]
        with self.spans.span("probe.evaluate"):
            probe = harness("probe", "--bundle",
                            self.bundle_dir / "model.lhdp", "--requests",
                            self.bundle_dir / "requests.bin", "--batches",
                            ",".join(map(str, batches)), "--spans",
                            self.dir / "probe-spans.csv")
        enc = {"low": probe[str(batches[0])], "high": probe[str(batches[1])]}

        flips = sum(counter(s, "serve.online.flips")
                    for s in snapshots.values())
        updates = sum(counter(s, "serve.online.updates")
                      for s in snapshots.values())
        if self.online:
            self.check(flips > 0, "online.flips > 0")

        def remat(s):
            m = counter(s, "encode.materialized_samples")
            r = counter(s, "encode.rematerialized_samples")
            return r / (m + r) if m + r else 0.0

        fit = self.fit
        nn = [fit["nn_matmul_abt_ms"], fit["nn_accumulate_gta_ms"],
              fit["nn_adam_step_ms"], fit["nn_small_ops_ms"]]
        train_s = self.median("fit_train_s")
        step_ms = train_s / fit["steps"] * 1e3
        feedback = sum(p["feedback"] for p in phases.values())
        accepted = sum(p["feedback_accepted"] for p in phases.values())
        acks = [p["acks"]["p50"] for p in phases.values()
                if p["acks"]["n"] > 0]
        lat_overhead = high["lat"]["p50"] / reference["lat"]["p50"] - 1
        fit_overhead = fit["observed_fit_s"] / self.median("fit_s") - 1

        def encode_share(which):
            """Encode time of the phase's mean batch over in-server p50."""
            p = phases[which]
            return (enc[which]["encode_us_per_sample"] * p["batch_mean"]
                    / 1e3 / p["inserver"]["p50"])

        return {
            "capacity_rps": (capacity, "req/s"),
            "serve.inserver_p50_ms.low": (low["inserver"]["p50"], "ms"),
            "serve.inserver_p50_ms.high": (high["inserver"]["p50"], "ms"),
            "serve.inserver_p99_ms.high": (high["inserver"]["p99"], "ms"),
            "serve.batch_mean.low": (low["batch_mean"], "count"),
            "serve.batch_mean.high": (high["batch_mean"], "count"),
            "serve.batch_fill.high": (high["batch_mean"] / self.max_batch(),
                                      "fraction"),
            "transport.outside_p50_ms.low": (low["outside"]["p50"], "ms"),
            "transport.outside_p50_ms.high": (high["outside"]["p50"], "ms"),
            "transport.outside_p99_ms.high": (high["outside"]["p99"], "ms"),
            "hdc.encode_us_per_sample.low":
                (enc["low"]["encode_us_per_sample"], "us"),
            "hdc.encode_us_per_sample.high":
                (enc["high"]["encode_us_per_sample"], "us"),
            "hdc.encode_kb_per_sample.low":
                (enc["low"]["encode_kb_per_sample"], "KiB"),
            "hdc.encode_kb_per_sample.high":
                (enc["high"]["encode_kb_per_sample"], "KiB"),
            "hdc.encode_share.low": (encode_share("low"), "fraction"),
            "hdc.encode_share.high": (encode_share("high"), "fraction"),
            "hdc.remat_share.low": (remat(snapshots["low"]), "fraction"),
            "hdc.remat_share.high": (remat(snapshots["high"]), "fraction"),
            "hv.score_us_per_sample.low":
                (enc["low"]["score_us_per_sample"], "us"),
            "hv.score_us_per_sample.high":
                (enc["high"]["score_us_per_sample"], "us"),
            "online.ack_p50_ms": (statistics.median(acks) if acks else 0.0,
                                  "ms"),
            "online.feedback_accepted_share":
                (accepted / feedback if feedback else 0.0, "fraction"),
            "online.updates": (updates, "count"),
            "online.flips": (flips, "count"),
            "fit_sample_epochs_per_s": (self.fit_rate(self.median("fit_s")),
                                        "1/s"),
            "fit.encode_s": (self.median("fit_encode_s"), "s"),
            "fit.train_s": (train_s, "s"),
            "fit.eval_s": (self.median("fit_eval_s"), "s"),
            "train.step_ms": (step_ms, "ms"),
            "train.epoch_s": (fit["epoch_s"], "s"),
            "train.step_other_ms": (stats.step_other_ms(step_ms, nn), "ms"),
            "nn.matmul_abt_ms": (nn[0], "ms"),
            "nn.accumulate_gta_ms": (nn[1], "ms"),
            "nn.adam_step_ms": (nn[2], "ms"),
            "nn.small_ops_ms": (nn[3], "ms"),
            "setup.data_s": (self.median("data_s"), "s"),
            "setup.fit_s": (self.median("fit_s"), "s"),
            "setup.server_ready_s": (self.median("server_ready_s"), "s"),
            "gen.lag_p99_ms": (max(low["lag_p99"], high["lag_p99"]), "ms"),
            "obs.trace_overhead_pct":
                (100 * max(lat_overhead, fit_overhead), "%"),
        }

    def max_batch(self):
        flags = self.w["server_flags"]
        return int(flags[flags.index("--max-batch") + 1])

    # -- reporting ----------------------------------------------------------

    def context(self):
        ctx = harness("context")
        ctx.update(
            cpu=cpu_model(), nproc=os.cpu_count(), commit=commit(),
            python=platform.python_version(), workload=self.name,
            seed=self.seed, seconds=self.seconds, trace=int(self.trace),
            server_flags=self.w["server_flags"] + [
                "(connection flags at lehdc_serve defaults)"])
        return ctx

    def finish(self, metrics):
        failed = sum(sum(p["counts"].values()) for p in self.phases.values())
        attempted = sum(p["sent"] for p in self.phases.values())
        for which, p in self.phases.items():
            if not p["lat"]["p99_supported"]:
                print(f"note: {which} phase has {p['n']} samples; p99 needs "
                      f"{stats.min_samples(99)}", file=sys.stderr)
        bad = [what for what, ok in self.checks if not ok]
        summary = {
            "phases": {w: {"samples": p["n"], "frames_sent": p["sent"],
                           "p99_windows": p["lat"]["windows"],
                           "failures": p["counts"],
                           "lag_p99_ms": p["lag_p99"]}
                       for w, p in self.phases.items()},
            "failed_share": stats.failed_share(
                {"all": failed}, attempted),
            "checks_failed": bad,
        }
        if hasattr(self, "ladder_steps"):
            summary["ladder_steps"] = self.ladder_steps
        print(json.dumps({"context": self.context(), "summary": summary}))
        for name, (value, unit) in metrics.items():
            print(f"{name:34s} {value:14.6f} {unit}")
        self.spans.write(self.dir / "spans.csv")
        result = {
            "correct": failed == 0 and not bad,
            "attempted": max(1, attempted),
            "failed": failed + len(bad),
            "metrics": {name: {"value": finite(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))

    def close(self):
        while self.servers:
            server = self.servers.pop()
            if server.proc.poll() is None:
                server.proc.kill()
            server.proc.wait()
            server.log.close()


def finite(value):
    """JSON has no infinity: a phase whose p99 fell on a failed request
    (counted as infinitely late) reports 1e9 ms, and the run is incorrect
    anyway."""
    value = float(value)
    return value if math.isfinite(value) else 1e9


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    set_vars = [v for v in FORBIDDEN_ENV if v in os.environ]
    if set_vars:
        print(f"perfbench: refusing to run with {', '.join(set_vars)} set",
              file=sys.stderr)
        return 2
    with open(HERE / "workloads.json", encoding="utf-8") as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    if args.seed < 0 or not 0 < args.seconds <= 600:
        print("perfbench: --seed must be >= 0 and --seconds in (0, 600]",
              file=sys.stderr)
        return 2

    if not (ROOT / "src" / "core" / "pipeline.hpp").exists():
        print(f"perfbench: no lehdc source tree around {HERE}",
              file=sys.stderr)
        return 2
    # Compiler and child-process scratch files stay inside the checkout.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    run = None
    try:
        build()
        run = Run(args.workload, workloads[args.workload], args.seed,
                  args.seconds, bool(args.trace))
        run.setup()
        metrics = run.traced() if args.trace else run.untraced()
        run.finish(metrics)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            run.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
