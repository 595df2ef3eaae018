#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload signoff|eco_serve|closure \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run in a checkout configures and
builds perfbench (the timing libraries under src/, the farm worker and the
perfbench program) into .bench_build/, and characterizes the libraries of the
warm-cache workloads into .bench_build/libcache. Every later run only checks
that the build is current.

Prints the workload's figures and, with --trace 1, the layer table, then as
its last stdout line one JSON object: {"correct", "attempted", "failed",
"metrics"}. The metrics are BENCHMARK.json's end_to_end list (--trace 0) or
its per_layer list (--trace 1). Exits nonzero, naming the cause, when a
build or set-up step fails (without a result line), and after printing the
result when an oracle check failed or an exact count drifted from an
earlier run of the same seed on the same build.

Seeds: 1 is the default seed; 1009 is held out for checking claims.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True

import fold  # noqa: E402

WORKLOADS = ("signoff", "eco_serve", "closure")
RUN_TIMEOUT_S = 170
WARM_TIMEOUT_S = 600

# The workload's own end-to-end figures, by the names the docs use.
NAMED = {
    "signoff": ["mcmm_pass_s", "ladder_pass_s", "mcmm_pass_scaled_ms",
                "ladder_pass_scaled_ms", "calibration_kernel_ms"],
    "eco_serve": ["query_p50_ms", "query_p99_ms", "query_p99_ms_with_ecos",
                  "query_rate_at_slo", "eco_commit_p50_ms",
                  "eco_commit_p90_ms", "query_roundtrip_p50_ms",
                  "eco_roundtrip_p50_ms"],
    "closure": ["closure_loop_s", "closure_loop_scaled_ms", "oracle_check_ms",
                "calibration_kernel_ms", "closure_wns_ps",
                "closure_violations"],
}


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def locked(path):
    fh = open(path, "w")
    fcntl.flock(fh, fcntl.LOCK_EX)
    return fh


def run_quiet(cmd, what, env=None, timeout=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError("%s failed (exit %d): %s" % (what, proc.returncode,
                                                      " ".join(cmd)))
    return proc.stdout


def build(out_dir):
    """Configure once, then bring the build up to date. Returns the paths of
    perfbench and goalposts_worker."""
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found: %s/src is missing"
                         % REPO_DIR)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise BenchError("%s not found on PATH" % tool)
    os.makedirs(out_dir, exist_ok=True)
    cmake_dir = os.path.join(out_dir, "cmake")
    with locked(os.path.join(out_dir, "build.lock")):
        if not os.path.isfile(os.path.join(cmake_dir, "Makefile")):
            run_quiet(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], "configure")
        run_quiet(["cmake", "--build", cmake_dir, "-j", "4"], "build")
    binary = os.path.join(cmake_dir, "perfbench")
    worker = os.path.join(cmake_dir, "goalposts_worker")
    for path in (binary, worker):
        if not os.access(path, os.X_OK):
            raise BenchError("build produced no executable %s" % path)
    return binary, worker


def warm_cache(out_dir, binary):
    """The library cache the warm workloads share, filled by this build."""
    cache = os.path.join(out_dir, "libcache")
    stamp = os.path.join(cache, ".filled_by")
    want = build_stamp(binary)
    with locked(os.path.join(out_dir, "libcache.lock")):
        if os.path.isfile(stamp) and open(stamp).read() == want:
            return cache
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        log("characterizing the warm-cache libraries (first run only)")
        env = dict(os.environ, TC_LIB_CACHE_DIR=cache)
        run_quiet([binary, "--warm-cache"], "warm-cache characterization",
                  env=env, timeout=WARM_TIMEOUT_S)
        with open(stamp, "w") as fh:
            fh.write(want)
    return cache


def benchmark_lists():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def build_stamp(binary):
    """Names one build: the binary's path and modification time."""
    return "%s %d" % (binary, os.stat(binary).st_mtime_ns)


def record_dir(out_dir, binary):
    """This build's records: exact counts and untraced main-op medians."""
    key = hashlib.sha1(build_stamp(binary).encode()).hexdigest()[:16]
    d = os.path.join(out_dir, "counts", key)
    os.makedirs(d, exist_ok=True)
    return d


def tracing_overhead(records, workload, seed, trace, doc):
    """Traced minus untraced median of the main operation (ms), once this
    build has run the seed untraced; an untraced run records its median."""
    path = os.path.join(records, "%s-seed%d-main_op.json" % (workload, seed))
    main_op = doc["e2e"]["main_op_p50_ms"]["value"]
    if not trace:
        with open(path, "w") as fh:
            json.dump(main_op, fh)
        return None
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return main_op - json.load(fh)


# Counts a performance change must leave alone; compared across builds too.
INVARIANT_COUNTS = ("device.sim_queries", "opt.edits")


def check_counts(records, workload, seed, trace, counts):
    """Exact counts must repeat across runs of one seed on one build; return
    the drifts. A change of an invariant count against another build's run
    of the seed is printed as a note, not counted as a failure."""
    root, build_key = os.path.split(records)
    name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    flat = {k: (v["value"] if isinstance(v, dict) else v)
            for k, v in counts.items()}
    for other in sorted(os.listdir(root)):
        path = os.path.join(root, other, name)
        if other == build_key or not os.path.isfile(path):
            continue
        with open(path) as fh:
            before = json.load(fh)
        for k in INVARIANT_COUNTS:
            if k in before and before[k] != flat.get(k):
                log("note: %s is %r here and %r on build %s"
                    % (k, flat.get(k), before[k], other))
    path = os.path.join(records, name)
    if not os.path.isfile(path):
        with open(path, "w") as fh:
            json.dump(flat, fh, sort_keys=True)
        return []
    with open(path) as fh:
        before = json.load(fh)
    return ["%s: %r then %r" % (k, before.get(k), flat.get(k))
            for k in sorted(set(before) | set(flat))
            if before.get(k) != flat.get(k)]


def fmt(v):
    return "%.6g" % v if isinstance(v, (int, float)) else str(v)


def print_named(workload, doc):
    named = doc["named"]
    print("== %s, seed %d: end-to-end ==" % (workload, doc["seed"]))
    rows = [("setup_s", doc["e2e"]["setup_s"]["value"], "s", ""),
            ("peak_rss_mb", doc["e2e"]["peak_rss_mb"]["value"], "MB", "")]
    attempted, failed = doc["attempted"], doc["failed"]
    rows.append(("error_rate", failed / attempted if attempted else 0.0,
                 "fraction", "%d failed / %d attempted" % (failed, attempted)))
    for name in NAMED[workload]:
        m = named.get(name)
        if m is None:
            continue
        if "p50" in m:
            detail = "n=%d" % m["n"]
            if "tail" in m:
                detail += ", p%g %s" % (m["tail_pct"], fmt(m["tail"]))
            rows.append((name, m["p50"], m["unit"], "median, " + detail))
        else:
            rows.append((name, m["value"], m["unit"], ""))
    for name, value, unit, detail in rows:
        print("  %-22s %14s %-9s %s" % (name, fmt(value), unit, detail))
    if "rate_steps" in named:
        print("  rate search (req/s): " + ", ".join(
            "%g%s" % (s["rate"], "" if s["pass"] else
                      ("x(lag)" if not s["valid"] else "x"))
            for s in named["rate_steps"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = os.path.join(os.getcwd(), ".bench_build")
    try:
        e2e_names, layer_names = benchmark_lists()
        binary, worker = build(out_dir)
        warm = warm_cache(out_dir, binary)
        runs = os.path.join(out_dir, "runs")
        os.makedirs(runs, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                                   dir=runs)
        try:
            doc, spans = run_workload(args, binary, worker, warm, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log("FAILED: %s" % e)
        return 2

    print_named(args.workload, doc)
    records = record_dir(out_dir, binary)
    layers = {k: v for k, v in doc["layers"].items()}
    overhead = tracing_overhead(records, args.workload, args.seed, args.trace,
                                doc)
    if args.trace:
        rows = fold.fold(spans)
        layers["trace.uncovered_frac"] = {
            "value": fold.uncovered_fraction(rows), "unit": "fraction"}
        print("== layer table (traced run; self = total - child spans) ==")
        print(fold.render(rows))
        print("  part of e2e span time no child span covers: %.4f" %
              layers["trace.uncovered_frac"]["value"])
        if overhead is None:
            print("  tracing overhead: not known until this build has run "
                  "seed %d untraced" % args.seed)
        else:
            layers["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
            print("  tracing overhead (main_op_p50_ms, traced run minus the "
                  "untraced run of this seed): %.4f ms" % overhead)
        print("== per-layer ==")
        for name in sorted(layers):
            print("  %-34s %14s %s" % (name, fmt(layers[name]["value"]),
                                       layers[name]["unit"]))

    drift = check_counts(records, args.workload, args.seed, args.trace,
                         doc["counts"])
    for d in drift:
        log("COUNT DRIFT against an earlier run of this seed on this build: "
            + d)
    wanted = layer_names if args.trace else e2e_names
    source = layers if args.trace else doc["e2e"]
    missing = [n for n in wanted if n not in source]
    if missing:
        log("FAILED: the run did not report %s" % ", ".join(missing))
        return 2
    metrics = {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
               for n in wanted}
    correct = doc["failed"] == 0 and not drift
    for f in doc["failures"]:
        log("oracle failure: " + f)
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_workload(args, binary, worker, warm, run_dir):
    work = os.path.join(run_dir, "work")
    os.makedirs(work)
    if args.workload == "signoff":
        cache = os.path.join(run_dir, "libcache")  # cold, owned by this run
        os.makedirs(cache)
    else:
        cache = warm
    spans_path = os.path.join(run_dir, "spans.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--worker", worker]
    if args.trace:
        cmd += ["--spans", spans_path]
    env = dict(os.environ, TC_LIB_CACHE_DIR=cache, TMPDIR=work)
    env.pop("TC_FARM_WORKER", None)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("workload %s exited %d after %.1f s (cause above)"
                         % (args.workload, proc.returncode,
                            time.monotonic() - t0))
    doc = json.loads(lines[-1])
    spans = []
    if args.trace:
        with open(spans_path) as fh:
            spans = [json.loads(line) for line in fh if line.strip()]
    return doc, spans


if __name__ == "__main__":
    sys.exit(main())
