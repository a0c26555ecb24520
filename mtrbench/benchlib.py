"""Pure helpers of the metertrust benchmark: statistics, the tail-percentile
rule, span self-time arithmetic, the A/B verdict and BENCHMARK.json
validation. No I/O, so test_benchlib.py can pin every rule exactly."""

import math
import re
import statistics

# --- statistics -------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def tail_percentile(samples, min_beyond=10):
    """The highest percentile on TAIL_LADDER with at least `min_beyond`
    samples beyond it, by the nearest-rank method: the q-percentile of n
    sorted samples is the one at rank ceil(q*n), and n - ceil(q*n) samples
    lie beyond it. Returns (q, value, n). With fewer than 2*min_beyond
    samples no rung qualifies and the maximum is returned as q = 1.0."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for q in TAIL_LADDER:
        rank = math.ceil(q * n - 1e-9)
        if n - rank >= min_beyond:
            return q, xs[rank - 1], n
    return 1.0, xs[-1], n


# --- end-to-end metrics ----------------------------------------------------

RELATIVE_METRICS = ("wall_rel", "cpu_rel", "sim_rate_rel", "io_rate_rel",
                    "pool_util", "peak_rss_MB")


def ran_s(row, busy_threads):
    """Wall seconds of a process (or a rep) less the time the hypervisor
    held its vCPUs: its steal seconds shared over the `busy_threads` vCPUs
    it kept busy. The steal share is capped at 90% of the wall time, since
    other processes' vCPUs can be stolen too."""
    share = min(row["steal_s"] / (busy_threads * row["wall_s"]), 0.9)
    return row["wall_s"] * (1 - share)


def relative_metrics(reps, probes, threads, busy_threads):
    """The end-to-end metrics of one run, without setup_s. `reps` hold each
    repetition's raw host numbers (wall_s, cpu_s, steal_s, peak_rss_MB) and
    the work it did (sim_s simulated seconds, io_MB written or merged; the
    same in every rep). `probes` hold the cpu_s of the probe runs made
    between them, each on `busy_threads` threads. The unit of time is the
    probe's median CPU seconds per thread: how long the host of the moment
    takes for a fixed amount of work. The probe's CPU time, unlike its wall
    time, carries no waiting at its own barriers or for stolen vCPUs. Times
    are the workload's medians in that unit, with stolen time taken out of
    the walls, so a stretch in which the shared host runs everything slower
    moves them little; rates are work per unit."""
    med = statistics.median
    unit = med(p["cpu_s"] for p in probes) / busy_threads
    wall_rel = med(ran_s(r, busy_threads) for r in reps) / unit
    return {"wall_rel": wall_rel,
            "cpu_rel": med(r["cpu_s"] for r in reps) / (busy_threads * unit),
            "sim_rate_rel": reps[0]["sim_s"] / wall_rel,
            "io_rate_rel": reps[0]["io_MB"] / wall_rel,
            "pool_util": med(r["cpu_s"] / (threads * ran_s(r, busy_threads))
                             for r in reps),
            "peak_rss_MB": med(r["peak_rss_MB"] for r in reps)}


# --- spans ------------------------------------------------------------------


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover (children may overlap each other, e.g. sink writes
    from several workers; each instant counts once). `spans` are dicts with
    id, parent, ts and dur (any one time unit). Returns {id: self time}."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        covered = union_length(
            (max(lo, c["ts"]), min(hi, c["ts"] + c["dur"]))
            for c in children.get(s["id"], [])
            if c["ts"] < hi and c["ts"] + c["dur"] > lo)
        out[s["id"]] = s["dur"] - covered
    return out


def layer_self_times(spans):
    """Self time summed per layer (the span's `cat`)."""
    own = self_times(spans)
    layers = {}
    for s in spans:
        layers[s["cat"]] = layers.get(s["cat"], 0.0) + own[s["id"]]
    return layers


def chrome_spans(trace):
    """The complete ("X") events of a Chrome trace-event document as span
    dicts for self_times."""
    return [{"id": e["args"]["id"], "parent": e["args"]["parent"],
             "ts": e["ts"], "dur": e["dur"], "cat": e["cat"],
             "name": e["name"]}
            for e in trace["traceEvents"] if e.get("ph") == "X"]


# --- A/B --------------------------------------------------------------------


def ab_verdict(parent, change, better):
    """Compares paired runs of a parent build and a change build of one
    metric. A pair is a win when the change reads better, ties count for
    neither. A gain needs wins in at least nine tenths of the pairs and a
    median difference larger than the parent's own interquartile distance.
    Returns a dict of medians, quartiles, win fraction and verdict."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    pq = quartiles(parent)
    cq = quartiles(change)
    diff = sign * (cq[1] - pq[1])
    parent_iqr = pq[2] - pq[0]
    n = len(parent)
    if wins >= 0.9 * n and diff > parent_iqr:
        verdict = "gain"
    elif losses >= 0.9 * n and -diff > parent_iqr:
        verdict = "regression"
    else:
        verdict = "no clear change"
    return {"parent": pq, "change": cq, "wins": wins / n,
            "losses": losses / n, "verdict": verdict}


# --- BENCHMARK.json ---------------------------------------------------------

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def validate_benchmark(spec):
    """Every way `spec` (a parsed BENCHMARK.json) breaks the benchmark
    contract; an empty list means it is valid."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"keys must be exactly {sorted(keys)}")
        return errors
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16:
        errors.append("paths: 1 to 16 directories")
    for p in paths:
        if (not PATH_RE.fullmatch(p) or p.startswith("/")
                or ".." in p.split("/")):
            errors.append(f"paths: bad directory {p!r}")
    cmd = spec["command"]
    if not 1 <= len(cmd) <= 32 or any(
            not isinstance(a, str) or len(a) > 200 for a in cmd):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    for a in cmd:
        if a.startswith("/") or ".." in a.split("/"):
            errors.append(f"command: path leaves the repo: {a!r}")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        errors.append("run_seconds: whole number from 1 to 60")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("workloads: 2 to 8")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append(f"workload {w}: keys must be name and why")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: why is one line of <= 200")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errors.append("end_to_end: 1 to 16 metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("per_layer: 1 to 128 metrics")
    for kind in ("end_to_end", "per_layer"):
        want = {"name", "unit", "better"} | (
            {"bound"} if kind == "end_to_end" else set())
        for m in spec[kind]:
            if set(m) != want:
                errors.append(f"{kind} {m.get('name')}: keys must be "
                              f"{sorted(want)}")
                continue
            names.append(m["name"])
            if not UNIT_RE.fullmatch(m["unit"]):
                errors.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                errors.append(f"{m['name']}: better is higher or lower")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    for n in names:
        if not isinstance(n, str) or not NAME_RE.fullmatch(n):
            errors.append(f"bad name {n!r}")
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        errors.append(f"names used more than once: {sorted(dupes)}")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    return errors
