#!/usr/bin/env python3
"""End-to-end benchmark of metertrust.

Builds the program from source (Release, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload for --seconds and prints, as its last
stdout line, {"correct", "attempted", "failed", "metrics"}.

  python3 mtrbench/run.py --workload roster --seed 42 --seconds 30 --trace 0
  python3 mtrbench/run.py --workload merge --seed 7 --seconds 30 --trace 1
  python3 mtrbench/run.py --ab BUILD_A BUILD_B --workload fixed_procs --pairs 10
  python3 mtrbench/run.py --workload all --seed 42    # all three in turn

--trace 0 times the shipped mtr_sweep/mtr_merge binaries from outside, one
program process at a time with --threads = nproc, runs the fixed reference
load mtr_bench_probe after every repetition, and reports every end-to-end
metric in units of the probe's CPU time. --trace 1 also runs mtr_bench_harness, which drives the
same sweeps in-process with spans around the calls into each layer, and
reports every per-layer metric. Either way every output is checked byte for
byte; a mismatch counts in `failed` and makes the exit code nonzero.
See mtrbench/README.md for the metrics and why each workload exists.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42  # the seed digests.json pins
THREADS = len(os.sched_getaffinity(0))
SETUP_PER_REP = 8  # set-up samples taken after every repetition
PROC_TIMEOUT_S = 170

# Closed batches: each workload is a fixed set of cells run to completion,
# repeated back to back for --seconds. `probe` is (threads, rounds) of the
# reference load run after every repetition: as many threads as the workload
# keeps busy, and a sixth to a tenth of a repetition's length.
WORKLOADS = {
    # The command users run to reproduce the paper: 19 grids behind
    # barriers, two-thirds of it fork-storm teardown.
    "roster": {"sweeps": ["--all"], "scale": 0.05, "seeds": 2,
               "probe": (THREADS, 6)},
    # Small fixed process sets at a larger scale: event loop, charge
    # dispatch, fault/reclaim and exec hashing; almost nothing exits.
    "fixed_procs": {"sweeps": ["fig04", "fig05", "fig06", "fig09", "fig10",
                               "fig11", "abl_ramsize", "abl_ptrace"],
                    "scale": 0.25, "seeds": 2, "probe": (THREADS, 4)},
    # Sharded outputs of cheap sweeps at many seeds, merged, folded and
    # resume-scanned; the simulator does no work in the timed part.
    "merge": {"sweeps": ["fig04", "fig05", "fig06", "pop_interference"],
              "scale": 0.005, "seeds": 600, "shards": 4, "probe": (1, 4)},
}


class BenchError(Exception):
    """A failure that stops the run before it can report."""


def log(msg):
    print(msg, flush=True)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def clean_env():
    # The MTR_* variables steer the program (scale, fault injection, the
    # population axis); the benchmark passes everything as flags instead.
    return {k: v for k, v in os.environ.items() if not k.startswith("MTR_")}


STDERR_LOG = None  # where the children's stderr goes (set per run)
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def steal_s():
    """Seconds the hypervisor has held this machine's vCPUs runnable but not
    running, summed over vCPUs (the steal column of /proc/stat; 0 where
    there is none). A halted, idle vCPU accrues none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


def run_proc(argv, stdout_path=None, timeout=PROC_TIMEOUT_S):
    """Runs one program process to completion. Returns (exit code, wall s,
    user+sys s, peak RSS MB, steal s over its lifetime)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(STDERR_LOG, "ab") if STDERR_LOG else subprocess.DEVNULL
    try:
        steal0 = steal_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=clean_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        steal = steal_s() - steal0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0, steal)


# --- build and provenance ---------------------------------------------------


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (Path.cwd() / target).resolve()


def build(cmake_dir, targets=("mtr_sweep", "mtr_merge", "mtr_bench_harness",
                               "mtr_bench_probe")):
    """Configures (once) and builds the benchmark package. Incremental, so
    later runs in the same checkout only re-check."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no metertrust source tree at {ROOT}")
    cmake_dir.mkdir(parents=True, exist_ok=True)
    logf = cmake_dir / "bench-build.log"
    with open(logf, "wb") as lf:
        if not (cmake_dir / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                                *gen, "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=lf, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                raise BenchError(f"cmake configure failed, see {logf}")
        r = subprocess.run(["cmake", "--build", str(cmake_dir), "-j",
                            str(THREADS), "--target", *targets],
                           stdout=lf, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            raise BenchError(f"build failed, see {logf}")


def find_binaries(build_dir):
    """The driven binaries in a build of this package or of the repo root.
    A build of the repo root has no probe; it then comes from this package's
    own build, as it links nothing of the program."""
    for sub in ("metertrust/bench", "bench"):
        d = build_dir / sub
        if (d / "mtr_sweep").is_file() and (d / "mtr_merge").is_file():
            harness = build_dir / "mtr_bench_harness"
            probe = build_dir / "mtr_bench_probe"
            if not probe.is_file():
                own = build_root() / "cmake"
                build(own, ["mtr_bench_probe"])
                probe = own / "mtr_bench_probe"
            return {"sweep": str(d / "mtr_sweep"), "merge": str(d / "mtr_merge"),
                    "harness": str(harness) if harness.is_file() else None,
                    "probe": str(probe)}
    raise BenchError(f"no mtr_sweep/mtr_merge under {build_dir}")


def cmake_cache(build_dir):
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text(errors="replace").splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.split("=", 1)
                cache[k.split(":", 1)[0]] = v
    return cache


def source_digest():
    """SHA-256 over the program's sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "bench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(build_dir, seed):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    # Ninja keeps every compile line in one file, Makefiles one per target.
    flag_files = [build_dir / "build.ninja", *build_dir.rglob("flags.make")]
    lto = any("-flto" in f.read_text(errors="replace")
              for f in flag_files if f.is_file())
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "threads": THREADS, "cpu_model": cpu,
            "compiler": version, "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "lto": lto, "git_commit": commit, "source_sha256": source_digest(),
            "seed": seed, "build_dir": str(build_dir)}


# --- workloads --------------------------------------------------------------


def sweep_argv(bins, w, seed, out_dir, *extra):
    return [bins["sweep"], *w["sweeps"], "--scale", str(w["scale"]),
            "--seeds", str(w["seeds"]), "--first-seed", str(seed),
            "--threads", str(THREADS), "--quiet", "--no-progress",
            "--out-dir", str(out_dir), *extra]


def sweep_names(bins, w):
    if w["sweeps"] != ["--all"]:
        return list(w["sweeps"])
    listing = subprocess.run([bins["sweep"], "--list"], capture_output=True,
                             text=True, env=clean_env(), check=True)
    return [line.split()[0] for line in listing.stdout.splitlines()
            if line.strip()]


def output_digests(out_dir, names, exts=("csv", "jsonl")):
    return {f"{n}.{e}": sha256_file(out_dir / f"{n}.{e}")
            for n in names for e in exts if (out_dir / f"{n}.{e}").is_file()}


def count_cells(out_dir, names):
    """Cells per sweep: the `record:"cell"` lines of its JSONL."""
    cells = {}
    for n in names:
        p = out_dir / f"{n}.jsonl"
        cells[n] = p.read_bytes().count(b'"record":"cell"') if p.is_file() else 0
    return cells


def sim_seconds(out_dir, names):
    """Simulated seconds: the sum of the run records' wall_seconds column."""
    total = 0.0
    for n in names:
        with open(out_dir / f"{n}.csv") as f:
            header = f.readline().rstrip("\n").split(",")
            col = header.index("wall_seconds")
            for line in f:
                total += float(line.split(",")[col])
    return total


def measure_setup(argv):
    """Walls of SETUP_PER_REP invocations that do everything but the work
    (mtr_sweep --dry-run; mtr_merge --help). Taken after every repetition,
    so the median spans the whole run rather than one moment of it."""
    walls = []
    for _ in range(SETUP_PER_REP):
        code, wall, *_ = run_proc(argv)
        if code != 0:
            raise BenchError("set-up invocation failed")
        walls.append(wall)
    return walls


class Checker:
    """Counts attempted and failed units (cells, merges, resume passes)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, units, ok, what):
        self.attempted += units
        if not ok:
            self.failed += units
            self.problems.append(what)


def compare_files(checker, got, wants, cells, label):
    """Per sweep: all `cells[sweep]` units fail when its CSV or JSONL is
    missing or differs from any of the `wants` digest maps."""
    for name, n in cells.items():
        bad = [f for f in (f"{name}.csv", f"{name}.jsonl")
               if got.get(f) is None or any(got[f] != w.get(f) for w in wants)]
        checker.check(n, not bad, f"{label}: {', '.join(bad)} differ")


class SweepWorkload:
    def __init__(self, name, bins, seed, work, checker, pinned):
        self.name, self.w = name, WORKLOADS[name]
        self.bins, self.seed, self.work = bins, seed, work
        self.checker, self.pinned = checker, pinned
        self.names = sweep_names(bins, self.w)
        self.reference = None  # digests of the first untraced rep
        self.cells = None

    def setup_samples(self):
        return measure_setup(sweep_argv(self.bins, self.w, self.seed,
                                        self.work / "dry", "--dry-run"))

    def untraced_rep(self, i):
        out = self.work / f"rep{i}"
        shutil.rmtree(out, ignore_errors=True)
        code, wall, cpu, rss, steal = run_proc(sweep_argv(self.bins, self.w,
                                                          self.seed, out))
        if code != 0:
            raise BenchError(f"mtr_sweep exited {code}")
        digests = output_digests(out, self.names)
        if self.reference is None:
            self.reference = digests
            self.cells = count_cells(out, self.names)
            missing = self.planned_cells() - sum(self.cells.values())
            if missing:
                self.checker.check(abs(missing), False,
                                   f"{missing} planned cells not written")
            self.sim_s = sim_seconds(out, self.names)
            self.out_bytes = sum((out / f).stat().st_size for f in digests)
        wants = [self.reference] + ([self.pinned] if self.pinned else [])
        compare_files(self.checker, digests, wants, self.cells,
                      f"rep {i} vs rep 0 and digests.json")
        if i > 0:
            shutil.rmtree(out)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_MB": rss,
                "steal_s": steal, "sim_s": self.sim_s,
                "io_MB": self.out_bytes / 1e6}

    def planned_cells(self):
        plan = self.work / "plan.txt"
        code, *_ = run_proc(sweep_argv(self.bins, self.w, self.seed,
                                       self.work / "dry", "--dry-run"), plan)
        if code != 0:
            raise BenchError(f"mtr_sweep --dry-run exited {code}")
        # The last line reads "dry run: 19 sweep(s), 120 cell(s)".
        last = plan.read_text().strip().splitlines()[-1]
        return int(last.split(",")[1].split()[0])

    def harness_argv(self, i):
        d = self.work / f"traced{i}"
        shutil.rmtree(d, ignore_errors=True)
        w = self.w
        return d, [self.bins["harness"], *w["sweeps"], "--scale", str(w["scale"]),
                   "--seeds", str(w["seeds"]), "--first-seed", str(self.seed),
                   "--threads", str(THREADS), "--out-dir", str(d / "out"),
                   "--merge-dir", str(d / "merged"),
                   "--trace-json", str(d / "trace.json"),
                   "--run-id", f"{self.name}/{self.seed}/{i}"]

    def check_traced(self, d, i):
        compare_files(self.checker, output_digests(d / "out", self.names),
                      [self.reference], self.cells, f"traced {i} vs untraced")
        compare_files(self.checker, output_digests(d / "merged", self.names),
                      [self.reference], self.cells, f"merged {i} vs untraced")

    def untraced_sweep_s(self, untraced):
        return statistics.median(r["wall_s"] for r in untraced)


class MergeWorkload:
    def __init__(self, name, bins, seed, work, checker, pinned):
        self.name, self.w = name, WORKLOADS[name]
        self.bins, self.seed, self.work = bins, seed, work
        self.checker, self.pinned = checker, pinned
        self.names = list(self.w["sweeps"])
        self.shards = [work / f"shard{i}" for i in range(self.w["shards"])]
        self.ref = work / "reference"
        self.prepare()

    def prepare(self):
        """Untimed: the shard outputs to merge and a single-process
        reference of the same grid."""
        n = len(self.shards)
        for i, d in enumerate(self.shards):
            shutil.rmtree(d, ignore_errors=True)
            code, *_ = run_proc(sweep_argv(self.bins, self.w, self.seed, d,
                                           "--shard", f"{i}/{n}",
                                           "--metrics", str(d / "metrics.json")))
            if code != 0:
                raise BenchError(f"prep: shard {i}/{n} exited {code}")
        shutil.rmtree(self.ref, ignore_errors=True)
        code, self.ref_wall, *_ = run_proc(sweep_argv(
            self.bins, self.w, self.seed, self.ref,
            "--metrics", str(self.ref / "metrics.json")))
        if code != 0:
            raise BenchError(f"prep: reference run exited {code}")
        self.reference = output_digests(self.ref, self.names)
        self.cells = count_cells(self.ref, self.names)
        self.shard_digests = [output_digests(d, self.names) for d in self.shards]
        self.in_bytes = sum(p.stat().st_size for d in self.shards
                            for p in d.iterdir())
        self.sim_s = sim_seconds(self.ref, self.names)
        if self.pinned is not None:
            # One merge attempt per sweep: the reference must match the pins.
            compare_files(self.checker, self.reference, [self.pinned],
                          {n: 1 for n in self.names}, "reference vs digests.json")

    def setup_samples(self):
        return measure_setup([self.bins["merge"], "--help"])

    def untraced_rep(self, i):
        out = self.work / f"merged{i}"
        shutil.rmtree(out, ignore_errors=True)
        wall = cpu = rss = steal = 0.0
        procs = []
        for n in self.names:
            ins = []
            for d in self.shards:
                ins += [str(d / f"{n}.csv"), str(d / f"{n}.jsonl")]
            procs.append(([self.bins["merge"], "--csv", str(out / f"{n}.csv"),
                           "--jsonl", str(out / f"{n}.jsonl"), *ins], f"merge {n}"))
        procs.append(([self.bins["merge"], "--metrics", str(out / "metrics.json"),
                       *[str(d / "metrics.json") for d in self.shards]],
                      "metrics fold"))
        n_shards = len(self.shards)
        for k, d in enumerate(self.shards):
            procs.append((sweep_argv(self.bins, self.w, self.seed, d, "--shard",
                                     f"{k}/{n_shards}", "--resume"),
                          f"resume shard {k}"))
        codes = []
        for argv, what in procs:
            code, w_, c_, r_, s_ = run_proc(argv)
            codes.append((code, what))
            wall += w_
            cpu += c_
            steal += s_
            rss = max(rss, r_)
        for code, what in codes:
            if code != 0:
                raise BenchError(f"{what} exited {code}")
        compare_files(self.checker, output_digests(out, self.names),
                      [self.reference], {n: 1 for n in self.names},
                      f"rep {i} merge vs the single-process reference")
        self.checker.check(1, self.fold_matches(out / "metrics.json"),
                           f"rep {i}: folded kernel counters differ from the "
                           "single-process run")
        for k, d in enumerate(self.shards):
            self.checker.check(1, output_digests(d, self.names) ==
                               self.shard_digests[k],
                               f"rep {i}: resume changed shard {k}")
        shutil.rmtree(out)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_MB": rss,
                "steal_s": steal, "sim_s": self.sim_s,
                "io_MB": self.in_bytes / 1e6}

    def fold_matches(self, folded_path):
        def counters(path):
            doc = json.loads(Path(path).read_text())
            return {s["sweep"]: {k: v for k, v in s["kernel"].items()
                                 if k != "max_event_queue_depth"}
                    for s in doc["sweeps"]}
        return counters(folded_path) == counters(self.ref / "metrics.json")

    def harness_argv(self, i):
        d = self.work / f"traced{i}"
        shutil.rmtree(d, ignore_errors=True)
        w = self.w
        shards = []
        for s in self.shards:
            shards += ["--shard-dir", str(s)]
        return d, [self.bins["harness"], *self.names, "--scale", str(w["scale"]),
                   "--seeds", str(w["seeds"]), "--first-seed", str(self.seed),
                   "--threads", str(THREADS), "--out-dir", str(d / "out"),
                   "--merge-dir", str(d / "merged"),
                   "--trace-json", str(d / "trace.json"),
                   "--run-id", f"{self.name}/{self.seed}/{i}", *shards]

    def check_traced(self, d, i):
        compare_files(self.checker, output_digests(d / "out", self.names),
                      [self.reference], self.cells, f"traced {i} vs untraced")
        compare_files(self.checker, output_digests(d / "merged", self.names),
                      [self.reference], {n: 1 for n in self.names},
                      f"traced merge {i} vs reference")

    def untraced_sweep_s(self, untraced):
        return self.ref_wall


# --- measuring ---------------------------------------------------------------


def fits(t0, reps, budget):
    """True while one more rep of the mean length so far ends within
    `budget` seconds of t0."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / reps <= budget


def median_metrics(reps):
    return {k: statistics.median(r[k] for r in reps) for k in reps[0]}


def run_probe(bins, w):
    """One run of the reference load: {"wall_s", "cpu_s", "checksum"}."""
    threads, rounds = w["probe"]
    r = subprocess.run([bins["probe"], "--threads", str(threads), "--rounds",
                        str(rounds)], capture_output=True, text=True,
                       env=clean_env(), timeout=PROC_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"mtr_bench_probe exited {r.returncode}")
    return json.loads(r.stdout)


def measure_untraced(wl, bins, t0, budget, with_setup):
    """Repetitions of the workload for `budget` seconds from t0 (at least
    3), each followed by a probe run, so both sample the same stretch of
    the host's speed. Returns (reps, probes, setup samples)."""
    reps, probes, setup = [], [], []
    while len(reps) < 3 or fits(t0, len(reps), budget):
        reps.append(wl.untraced_rep(len(reps)))
        probes.append(run_probe(bins, wl.w))
        if probes[-1]["checksum"] != probes[0]["checksum"]:
            raise BenchError("mtr_bench_probe gave two checksums")
        if with_setup:
            setup += wl.setup_samples()
    return reps, probes, setup


def layer_metrics(raw, spans):
    """Per-layer metrics of one traced run from the harness's raw numbers."""
    k = raw["kernel"]
    q, tail, n = benchlib.tail_percentile(raw["cell_seconds"])
    dist = raw["dist"]
    write_s = raw["csv_write_s"] + raw["jsonl_write_s"]
    m = {
        "core.idle_s": raw["threads"] * raw["pool_wall_s"] - raw["busy_s"],
        "core.busy_s": raw["busy_s"],
        "core.runs": raw["runs"],
        "core.cells": n,
        "core.cell_p50_s": statistics.median(raw["cell_seconds"]),
        "core.cell_tail_s": tail,
        "core.cell_tail_q": q,
        "core.witness_steps": raw["witness_steps"],
        "crypto.sha256_MBps": raw["sha256_MBps"],
    }
    for name in ("events_popped", "charges_enqueued", "charge_flushes",
                 "context_switches", "timer_ticks", "idle_leaps",
                 "running_leaps", "ticks_coalesced"):
        m[f"kernel.{name}"] = k[name]
    m["kernel.busy_ns_per_event"] = raw["busy_s"] * 1e9 / max(k["events_popped"], 1)
    m.update({
        "mm.minor_faults": raw["minor_faults"],
        "mm.major_faults": raw["major_faults"],
        "mm.destroy_space_us": raw["destroy_space_us"],
        "mm.touch_fault_ns": raw["touch_fault_ns"],
        "workloads.population_s": raw["population_s"],
        "workloads.tenants": raw["tenants"],
        "sim.construct_us": raw["construct_us"],
        "sim.construct_s": raw["construct_us"] * raw["runs"] / 1e6,
        "report.write_s": write_s,
        "report.bytes": raw["report_bytes"],
        "report.write_MBps": raw["report_bytes"] / 1e6 / write_s,
        "dist.scan_MBps": dist["scan_bytes"] / 1e6 / dist["scan_s"],
        "dist.merge_s": dist["merge_s"],
        "dist.metrics_fold_s": dist["metrics_fold_s"],
        "dist.resume_scan_s": dist["resume_scan_s"],
        "dist.records": dist["records"],
    })
    for layer, us in benchlib.layer_self_times(spans).items():
        m[f"self.{layer}_s"] = us / 1e6
    return m


EXACT_LAYER_METRICS = ("core.runs", "core.cells", "core.witness_steps",
                       "mm.minor_faults", "mm.major_faults", "workloads.tenants",
                       "report.bytes", "dist.records")


def run_workload(args, bins, build_dir):
    global STDERR_LOG
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = build_root() / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    STDERR_LOG = work / "stderr.log"
    results = build_root() / "results"
    results.mkdir(parents=True, exist_ok=True)

    pins = json.loads((HERE / "digests.json").read_text())
    pinned = None
    if args.seed == pins["seed"] and not args.record_digests:
        pinned = pins["workloads"][args.workload]
    checker = Checker()
    cls = MergeWorkload if args.workload == "merge" else SweepWorkload
    wl = cls(args.workload, bins, args.seed, work, checker, pinned)

    t0 = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced, probes, setup = measure_untraced(wl, bins, t0, budget,
                                               not args.trace)
    if args.record_digests:
        pins["workloads"][args.workload] = wl.reference
        (HERE / "digests.json").write_text(json.dumps(pins, indent=1,
                                                      sort_keys=True) + "\n")
        log(f"recorded {len(wl.reference)} digests for {args.workload}")

    prov = provenance(build_dir, args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if not args.trace:
        metrics = benchlib.relative_metrics(untraced, probes, THREADS,
                                            wl.w["probe"][0])
        metrics["setup_s"] = statistics.median(setup)
        detail = {"reps": untraced, "probes": probes, "setup_s": setup}
    else:
        if bins["harness"] is None:
            raise BenchError("--trace 1 needs mtr_bench_harness in the build")
        layers, spans = [], None
        t1 = time.perf_counter()
        while not layers or fits(t1, len(layers), args.seconds - (t1 - t0)):
            i = len(layers)
            d, argv = wl.harness_argv(i)
            code, *_ = run_proc(argv, work / f"harness{i}.json")
            if code != 0:
                raise BenchError(f"mtr_bench_harness exited {code}")
            raw = json.loads((work / f"harness{i}.json").read_text())
            wl.check_traced(d, i)
            trace = json.loads((d / "trace.json").read_text())
            spans = benchlib.chrome_spans(trace)
            m = layer_metrics(raw, spans)
            m["bench.trace_overhead"] = raw["sweeps_s"] / wl.untraced_sweep_s(untraced) - 1
            layers.append(m)
            shutil.copyfile(d / "trace.json", results / f"trace-{tag}.json")
            shutil.rmtree(d)
        kernel = [n for n in layers[0] if n.startswith("kernel.")
                  and n != "kernel.busy_ns_per_event"]
        for name in (*EXACT_LAYER_METRICS, *kernel):
            checker.check(1, all(m[name] == layers[0][name] for m in layers),
                          f"{name} differs between traced runs")
        metrics = median_metrics(layers)
        table = self_time_table(spans)
        (results / f"selftime-{tag}.txt").write_text(table)
        log(table)
        log(f"tracing overhead: traced sweeps {metrics['bench.trace_overhead']:+.1%} "
            "against the untraced median")
        detail = {"untraced": untraced, "traced": layers}

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    out = {n: {"value": metrics[n], "unit": units[n]} for n in wanted}
    error_rate = checker.failed / max(checker.attempted, 1)
    (results / f"{tag}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": out, "error_rate": error_rate,
         "problems": checker.problems, "detail": detail}, indent=1) + "\n")

    log(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for n in wanted:
        log(f"  {n:28s} {metrics[n]:>16.6g} {units[n]}")
    log(f"  {'error_rate':28s} {error_rate:>16.6g} ({checker.failed}/"
        f"{checker.attempted})")
    for p in checker.problems:
        log(f"MISMATCH: {p}")
    return {"correct": checker.failed == 0, "attempted": max(checker.attempted, 1),
            "failed": checker.failed, "metrics": out}


def self_time_table(spans):
    layers = benchlib.layer_self_times(spans)
    total = sum(layers.values())
    rows = ["self time per layer (traced run)",
            f"  {'layer':10s} {'self s':>10s} {'share':>7s}"]
    for layer, us in sorted(layers.items(), key=lambda kv: -kv[1]):
        rows.append(f"  {layer:10s} {us / 1e6:10.4f} {us / total:7.1%}")
    return "\n".join(rows) + "\n"


# --- A/B ----------------------------------------------------------------------


def run_ab(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"A": Path(args.ab[0]).resolve(), "B": Path(args.ab[1]).resolve()}
    for label, d in sides.items():
        bt = cmake_cache(d).get("CMAKE_BUILD_TYPE", "")
        if bt != "Release":
            raise BenchError(f"{label} build {d} is {bt or 'untyped'}, not Release")
        find_binaries(d)
    values = {"A": [], "B": []}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for label in order:
            r = subprocess.run([sys.executable, str(HERE / "run.py"),
                                "--workload", args.workload,
                                "--seed", str(args.seed + i),
                                "--seconds", str(args.seconds), "--trace", "0",
                                "--build-dir", str(sides[label])],
                               capture_output=True, text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
            res = json.loads(last)
            if r.returncode != 0 or not res.get("correct"):
                raise BenchError(f"pair {i} side {label} failed:\n{r.stdout[-2000:]}")
            values[label].append(res["metrics"])
            log(f"pair {i} {label}: wall_rel {res['metrics']['wall_rel']['value']:.4f}")
    log(f"A = {sides['A']}\nB = {sides['B']}\nworkload {args.workload}, "
        f"{args.pairs} pairs, alternating first side")
    log(f"{'metric':14s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
        f"{'B wins':>7s}  verdict")
    for m in spec["end_to_end"]:
        a = [v[m["name"]]["value"] for v in values["A"]]
        b = [v[m["name"]]["value"] for v in values["B"]]
        r = benchlib.ab_verdict(a, b, m["better"])
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"  # noqa: E731
        log(f"{m['name']:14s} {fmt(r['parent']):>34s} {fmt(r['change']):>34s} "
            f"{r['wins']:7.0%}  {r['verdict']}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir", help="use this existing Release build "
                    "(of this package or of the repo root) instead of building")
    ap.add_argument("--ab", nargs=2, metavar=("BUILD_A", "BUILD_B"),
                    help="A/B-compare two Release builds over --pairs runs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json for this workload at the pinned seed")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.ab:
            if args.pairs < 10 or args.workload == "all":
                ap.error("--ab needs one workload and --pairs >= 10")
            return run_ab(args)
        if args.build_dir:
            build_dir = Path(args.build_dir).resolve()
        else:
            build_dir = build_root()
            build(build_dir / "cmake")
            build_dir = build_dir / "cmake"
        if cmake_cache(build_dir).get("CMAKE_BUILD_TYPE") != "Release":
            raise BenchError(f"{build_dir} is not a Release build; refusing to "
                             "report timings")
        bins = find_binaries(build_dir)
        if args.record_digests and args.seed != DEFAULT_SEED:
            raise BenchError(f"digests are pinned at seed {DEFAULT_SEED}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        correct = True
        for name in names:
            log(f"== {name}")
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                  bins, build_dir)
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except BenchError as e:
        print(f"mtrbench: {e}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
