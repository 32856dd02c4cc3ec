#!/usr/bin/env python3
"""End-to-end benchmark of the bkrylov solvers (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (library, server and solve driver) into
$CARGO_TARGET_DIR or .bench_build, runs one workload single-lane
(BKR_THREADS=1) for about S seconds and prints, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics. Everything else goes to stderr or to the earlier stdout
lines.
"""
import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_COUNTS = os.path.join(HERE, "expected_counts.json")

# The seed selects one of VARIANTS input variants per workload, so the exact
# iteration counts of every possible seed are recorded in expected_counts.json.
VARIANTS = 8
SOLVE_WORKLOADS = ("antenna-gmres", "antenna-bgcrodr", "elasticity-sequence")
WORKLOADS = SOLVE_WORKLOADS + ("serve-stream",)
# Rounds a run makes at least, whatever --seconds says, so every time is a
# median over at least three repeats.
MIN_ROUNDS = {"antenna-gmres": 3, "antenna-bgcrodr": 4, "elasticity-sequence": 3,
              "serve-stream": 3}
# latency_tail_ms is this percentile of the requests' latencies.
TAIL_PERCENTILE = 90
# Median host-probe time (host_probe.hpp) of the reference host in README.md
# when nothing else loads it. The solve workloads' times are scaled to this
# speed; serve-stream's solves run in the server process, where the
# benchmark cannot probe, and are reported unscaled.
PROBE_REF_MS = 4.0
# When the host is busy the solvers slow by about the square root of the
# probe's slowdown: the probe is tight compute in L2, the solvers also wait
# on memory. Measured over earlier sets of runs, the exponents 0.5 to 0.75
# left the least spread (README.md).
PROBE_EXPONENT = 0.5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "solve_s": "s", "setup_s": "s", "iterations": "count", "pass_frac": "ratio",
    "peak_rss_mb": "MB", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
}
PER_LAYER = {
    "fem.assemble_s": "s", "precond.setup_s": "s",
    "direct.factor_s": "s", "direct.factor_nnz": "count", "direct.solve_s": "s",
    "precond.apply_s": "s", "precond.apply_calls": "count", "precond.apply_cols": "count",
    "sparse.spmm_s": "s", "sparse.spmm_calls": "count", "sparse.spmm_cols": "count",
    "sparse.spmm_gflops_computed": "GFlop/s",
    "la.ortho_projection_s": "s", "la.ortho_normalization_s": "s", "la.small_dense_s": "s",
    "la.restart_eig_s": "s",
    "core.reduction_s": "s", "core.reductions": "count", "core.iterations": "count",
    "core.cycles": "count", "core.operator_applies": "count", "core.precond_applies": "count",
    "core.recoveries": "count", "core.self_s": "s",
    "obs.overhead_frac": "ratio", "obs.attributed_frac": "ratio",
    "serve.solve_ms_p50": "ms", "serve.overhead_ms_p50": "ms", "serve.batch_width_mean": "count",
    "serve.warm_start_frac": "ratio", "serve.cache_hit_frac": "ratio",
    "serve.iterations_mean": "count",
}
# A solve workload's traced run must attribute this share of solve_s to
# solver phases and the timing wrappers.
MIN_ATTRIBUTED = 0.90


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["BKR_THREADS"] = "1"
    return env


# ---- build ---------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    logfile = os.path.join(out, "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    # Configure every time: cheap when nothing changed, and cmake refuses a
    # build tree whose cache was made for another source tree, so a shared
    # build directory never builds one checkout's code for another.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
              "--target", "perfbench_solve", "bkr_serve"]]
    with open(logfile, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed, see {logfile}")
    return out


def host_record(exe_dir):
    """Run conditions printed with every result, so a loaded host shows."""
    out = subprocess.run([os.path.join(exe_dir, "perfbench_solve"), "--workload", "probe",
                          "--reps", "20"],
                         stdout=subprocess.PIPE, text=True, env=child_env(), check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    return {"bkr_threads": 1, "serve_workers": 1,
            "serve_tenant_cap": f"{SERVE_TENANT_CAP} (non-default; bkr_serve default 8)",
            "nproc": os.cpu_count(),
            "build": "CMAKE_BUILD_TYPE=Release (-O3 -DNDEBUG), no -march",
            "probe_ref_ms": PROBE_REF_MS,
            "probe_ms_at_start": statistics.median(json.loads(out)["probe_ms"])}


# ---- statistics ------------------------------------------------------------

def median_of_rounds(per_round):
    """Element-wise median over rounds of equally long lists of times.

    Every round repeats the same inputs, so entry j is the same piece of
    work (a solver call, a request, a burst) in every round.
    """
    assert len({len(r) for r in per_round}) == 1
    return [statistics.median(col) for col in zip(*per_round)]


def host_scale(probe_ms):
    """Factor that scales a solve workload's times to the reference host.

    The speed of the shared host drifts by up to 1.5x over tens of seconds
    and between runs, whatever the benchmark does; the host probes taken
    around the solver calls of the same run see the same drift (README.md,
    "Timing statistics").
    """
    return (PROBE_REF_MS / statistics.median(probe_ms)) ** PROBE_EXPONENT


def timing_metrics(solve_s, setup_s, request_ms, scale):
    """The end-to-end timings of a run, multiplied by `scale`."""
    return {"solve_s": scale * solve_s, "setup_s": scale * setup_s,
            "latency_p50_ms": scale * percentile(request_ms, 50),
            "latency_tail_ms": scale * percentile(request_ms, TAIL_PERCENTILE),
            "throughput_rps": len(request_ms) / (scale * solve_s)}


def percentile(values, p):
    """Linear-interpolated percentile, as statistics.quantiles(method='inclusive')."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def with_units(values, units):
    """{name: value} -> {name: {"value", "unit"}} for every metric of `units`."""
    assert set(values) == set(units), sorted(set(values) ^ set(units))
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


# ---- solve workloads -------------------------------------------------------

def run_solve(exe_dir, workload, variant, seconds, trace):
    cmd = [os.path.join(exe_dir, "perfbench_solve"), "--workload", workload,
           "--variant", str(variant), "--seconds", str(seconds), "--trace", str(trace),
           "--min-rounds", str(4 if trace else MIN_ROUNDS[workload])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_solve exited {proc.returncode}: {proc.stderr.strip()}")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    rounds = [l for l in lines if "round" in l]
    tail = [l for l in lines if "peak_rss_mb" in l]
    if not rounds or not tail:
        raise BenchError("perfbench_solve printed no rounds")
    return rounds, tail[0]["peak_rss_mb"]


def solve_checks(workload, variant, rounds):
    """Returns the list of problems found; empty when every check passes.

    Iteration counts are gated exactly against expected_counts.json. A
    different operator-apply or reduction count is only flagged on stderr:
    changes such as low-sync orthogonalization move them on purpose.
    """
    problems = []
    first = rounds[0]
    for key in ("iterations", "operator_applies", "reductions", "x_hash"):
        if any(r[key] != first[key] for r in rounds):
            problems.append(f"{key} differs between rounds: {[r[key] for r in rounds]}")
    with open(EXPECTED_COUNTS) as f:
        expected = json.load(f).get(workload, {}).get(str(variant))
    if expected is None:
        problems.append(f"no recorded counts for {workload} variant {variant}")
        return problems
    for key, want in expected.items():
        if first[key] == want:
            continue
        if key == "iterations":
            problems.append(f"iterations = {first[key]}, recorded {want}")
        else:
            log(f"FLAG: {key} = {first[key]}, recorded {want}")
    return problems


def solve_metrics(workload, rounds, peak_rss_mb, trace):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    columns = rounds[0]["columns"]
    if not trace:
        # A request is one column; its latency is the solver call answering it.
        call_ms = median_of_rounds([r["call_ms"] for r in plain])
        request_ms = [ms for ms in call_ms for _ in range(columns // len(call_ms))]
        solve_s = statistics.median(r["solve_s"] for r in plain)
        setup_s = statistics.median(r["assemble_s"] + r["precond_setup_s"] for r in plain)
        scale = host_scale([ms for r in plain for ms in r["probe_ms"]])
        log(f"{workload}: medians over {len(plain)} rounds, {len(request_ms)} requests; "
            f"unscaled solve_s {solve_s:.4g}, host scale {scale:.4f}")
        failed = sum(r["failed"] for r in rounds)
        attempted = sum(r["columns"] for r in rounds)
        return with_units({
            **timing_metrics(solve_s, setup_s, request_ms, scale),
            "iterations": rounds[0]["iterations"],
            "pass_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }, END_TO_END)

    def med(key, rs=traced):
        return statistics.median(r[key] for r in rs)

    def phase(name):
        return statistics.median(r["phase_s"][name] for r in traced)

    traced_solve_s = med("solve_s")
    inside = [r["spmm_s"] + r["precond_s"] + sum(v for k, v in r["phase_s"].items()
                                                   if k not in ("spmm", "precond"))
              for r in traced]
    self_s = statistics.median(r["solve_s"] - i for r, i in zip(traced, inside))
    spmm_s = med("spmm_s")
    first = traced[0]
    values = {
        "fem.assemble_s": med("assemble_s", rounds),
        "precond.setup_s": med("precond_setup_s", rounds),
        "direct.factor_s": med("direct_factor_s"),
        "direct.factor_nnz": first["direct_factor_nnz"],
        "direct.solve_s": med("direct_solve_s"),
        "precond.apply_s": med("precond_s"),
        "precond.apply_calls": first["precond_calls"],
        "precond.apply_cols": first["precond_cols"],
        "sparse.spmm_s": spmm_s,
        "sparse.spmm_calls": first["spmm_calls"],
        "sparse.spmm_cols": first["spmm_cols"],
        "sparse.spmm_gflops_computed": first["spmm_flops"] / spmm_s / 1e9 if spmm_s > 0 else 0.0,
        "la.ortho_projection_s": phase("ortho_projection"),
        "la.ortho_normalization_s": phase("ortho_normalization"),
        "la.small_dense_s": phase("small_dense"),
        "la.restart_eig_s": phase("restart_eig"),
        "core.reduction_s": phase("reduction"),
        "core.reductions": first["reductions"],
        "core.iterations": first["iterations"],
        "core.cycles": first["cycles"],
        "core.operator_applies": first["operator_applies"],
        "core.precond_applies": first["precond_applies"],
        "core.recoveries": first["recoveries"],
        "core.self_s": self_s,
        # Round 0 pays first-touch costs and is always untraced; leave it out.
        "obs.overhead_frac": traced_solve_s / med("solve_s", plain[1:] or plain) - 1.0,
        "obs.attributed_frac": 1.0 - self_s / traced_solve_s,
        # The server layer is not on this workload's path.
        "serve.solve_ms_p50": 0.0, "serve.overhead_ms_p50": 0.0,
        "serve.batch_width_mean": 0.0, "serve.warm_start_frac": 0.0,
        "serve.cache_hit_frac": 0.0, "serve.iterations_mean": 0.0,
    }
    return with_units(values, PER_LAYER)


def solve_workload(exe_dir, workload, variant, seconds, trace):
    rounds, rss = run_solve(exe_dir, workload, variant, seconds, trace)
    problems = solve_checks(workload, variant, rounds)
    metrics = solve_metrics(workload, rounds, rss, trace)
    if trace:
        attributed = metrics["obs.attributed_frac"]["value"]
        if attributed < MIN_ATTRIBUTED:
            problems.append(f"traced run attributes only {attributed:.3f} of solve_s")
    worst = max(r["max_true_residual"] for r in rounds)
    log(f"{workload}: {len(rounds)} rounds, worst true residual {worst:.2e}")
    return problems, sum(r["columns"] for r in rounds), sum(r["failed"] for r in rounds), metrics


# ---- serve-stream ------------------------------------------------------------
#
# One client in a closed loop: it sends a burst of held solve requests,
# flushes them into one batch and waits for every answer before the next
# burst. Each round starts a fresh bkr_serve, so the x_hash check compares
# separate server runs of the same seed.

SERVE_SPECS = ("poisson2d:64", "poisson2d:96", "varcoef:64:10")
SERVE_METHODS = ("gmres", "gcrodr")
SERVE_COARSE = 16
SERVE_TENANT_CAP = 64  # non-default; see Server


def serve_schedule(variant):
    """Bursts of one round, as (matrix, method, width) plus one nu per request.

    Every round holds the same multiset of bursts, so the mix of request
    sizes does not depend on the seed: twelve width-1 bursts (every matrix
    and method twice), width-4 bursts of both methods and one width-8 burst
    of gmres, on poisson2d:64. The seed shuffles their order and draws the
    right-hand sides (nu).
    """
    rng = random.Random(1_000_003 * variant + 17)
    bursts = [(s, m, 1) for s in SERVE_SPECS for m in SERVE_METHODS] * 2
    bursts += [("poisson2d:64", m, 4) for m in SERVE_METHODS]
    bursts += [("poisson2d:64", "gmres", 8)]
    rng.shuffle(bursts)
    return [(s, m, w, [round(rng.uniform(0.05, 0.5), 6) for _ in range(w)])
            for s, m, w in bursts]


class Server:
    def __init__(self, exe_dir, deadline):
        # Non-default admission: bkr_serve writes an answer before it releases
        # the request's tenant slot, so at the default cap of 8 a closed-loop
        # client's next 8-wide burst can be refused as overloaded (README,
        # known limitations). Drop SERVE_TENANT_CAP once that is fixed.
        self.proc = subprocess.Popen(
            [os.path.join(exe_dir, "bkr_serve"), "-workers", "1",
             "-tenant_cap", str(SERVE_TENANT_CAP)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, bufsize=1, env=child_env())
        # A server that stops answering is killed at the run's deadline; the
        # blocked read then sees EOF and the run fails instead of hanging.
        self.killer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.killer.start()

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def answer(self, key="id"):
        """Next response line carrying `key` (degrade events are skipped)."""
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("bkr_serve closed its output")
            msg = json.loads(line)
            if key in msg:
                return msg

    def stop(self):
        """Shuts the server down; returns its peak RSS in MB."""
        try:
            self.send({"op": "shutdown"})
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = -9
                break
            time.sleep(0.01)
        self.killer.cancel()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"bkr_serve exited {self.proc.returncode}")
        return usage.ru_maxrss / 1024.0


def serve_round(exe_dir, schedule, index, deadline):
    t0 = time.perf_counter()
    server = Server(exe_dir, deadline)
    try:
        # Warm-up: one quick solve per operator builds the server's matrix
        # registry; these answers are not part of the measured stream.
        for s in SERVE_SPECS:
            server.send({"op": "solve", "id": f"warm-{s}", "matrix": s, "method": "gmres",
                         "tol": 1e-2, "coarse": SERVE_COARSE})
        for _ in SERVE_SPECS:
            server.answer()
        setup_s = time.perf_counter() - t0

        # responses and latencies are in schedule order (burst, then
        # position in the burst), whatever order the answers arrive in.
        responses, latencies, burst_ms, batches = [], [], [], []
        for b, (spec, method, width, nus) in enumerate(schedule):
            sent = {}
            burst_start = time.perf_counter()
            for j, nu in enumerate(nus):
                rid = f"r{index}-{b}-{j}"
                sent[rid] = time.perf_counter()
                server.send({"op": "solve", "id": rid, "matrix": spec, "method": method,
                             "nu": nu, "coarse": SERVE_COARSE, "hold": True})
            server.send({"op": "flush"})
            got = {}
            for _ in nus:
                msg = server.answer()
                got[msg["id"]] = (msg, 1e3 * (time.perf_counter() - sent[msg["id"]]))
            burst_ms.append(1e3 * (time.perf_counter() - burst_start))
            for rid in sent:
                responses.append(got[rid][0])
                latencies.append(got[rid][1])
            batches.append(got[next(iter(sent))][0].get("iterations", 0))
        server.send({"op": "stats"})
        stats = server.answer("event")
    finally:
        rss = server.stop()
    return {"setup_s": setup_s, "burst_ms": burst_ms, "responses": responses,
            "latencies": latencies, "batch_iterations": batches, "stats": stats, "rss": rss}


def serve_workload(exe_dir, variant, seconds, trace):
    schedule = serve_schedule(variant)
    rounds = []
    start = time.perf_counter()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    # As in perfbench_solve: a round starts only if it should end in time.
    last_round_s = 0.0
    while (len(rounds) < MIN_ROUNDS["serve-stream"]
           or time.perf_counter() - start + last_round_s <= seconds):
        r0 = time.perf_counter()
        rounds.append(serve_round(exe_dir, schedule, len(rounds), deadline))
        last_round_s = time.perf_counter() - r0

    problems = []
    attempted = sum(len(r["responses"]) for r in rounds)
    failed = sum(1 for r in rounds for m in r["responses"]
                 if m.get("status") != "converged" or m.get("converged") != 1)
    hashes = [[(m["id"].split("-", 1)[1], m.get("x_hash")) for m in r["responses"]]
              for r in rounds]
    if any(h != hashes[0] for h in hashes):
        problems.append("x_hash differs between server runs of the same seed")
    iterations = [sum(r["batch_iterations"]) for r in rounds]
    if any(i != iterations[0] for i in iterations):
        problems.append(f"stream iterations differ between server runs: {iterations}")

    if not trace:
        # A burst's time runs from its first request sent to its last answer.
        solve_s = statistics.median(sum(r["burst_ms"]) for r in rounds) / 1e3
        request_ms = median_of_rounds([r["latencies"] for r in rounds])
        log(f"serve-stream: medians over {len(rounds)} rounds, {len(request_ms)} requests; "
            f"unscaled solve_s {solve_s:.4g}, host scale 1")
        metrics = with_units({
            **timing_metrics(solve_s, statistics.median(r["setup_s"] for r in rounds),
                             request_ms, 1.0),
            "iterations": iterations[0],
            "pass_frac": 1.0 - failed / attempted,
            "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
        }, END_TO_END)
        return problems, attempted, failed, metrics

    responses = [m for r in rounds for m in r["responses"]]
    overhead = [lat - 1e3 * m.get("seconds", 0.0) for r in rounds
                for lat, m in zip(r["latencies"], r["responses"])]
    hits = statistics.median(r["stats"]["cache_hits"] for r in rounds)
    misses = statistics.median(r["stats"]["cache_misses"] for r in rounds)
    values = {k: 0.0 for k in PER_LAYER}  # solver-side layers are not visible here
    values.update({
        "core.iterations": iterations[0],
        "serve.solve_ms_p50": percentile([1e3 * m.get("seconds", 0.0) for m in responses], 50),
        "serve.overhead_ms_p50": percentile(overhead, 50),
        "serve.batch_width_mean": statistics.mean(m.get("batch_width", 0) for m in responses),
        "serve.warm_start_frac": statistics.mean(m.get("warm_start", 0) for m in responses),
        "serve.cache_hit_frac": hits / (hits + misses) if hits + misses > 0 else 0.0,
        "serve.iterations_mean": statistics.mean(m.get("iterations", 0) for m in responses),
    })
    return problems, attempted, failed, with_units(values, PER_LAYER)


# ---- main ----------------------------------------------------------------------

def record_counts(exe_dir):
    """Rewrites expected_counts.json from one round of every solve variant."""
    counts = {}
    for workload in SOLVE_WORKLOADS:
        counts[workload] = {}
        for variant in range(VARIANTS):
            cmd = [os.path.join(exe_dir, "perfbench_solve"), "--workload", workload,
                   "--variant", str(variant), "--seconds", "0", "--trace", "0",
                   "--min-rounds", "1"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                                 check=True).stdout
            r = json.loads(out.splitlines()[0])
            if r["failed"] != 0:
                raise BenchError(f"{workload} variant {variant}: {r['failed']} columns failed")
            counts[workload][str(variant)] = {k: r[k] for k in ("iterations", "operator_applies",
                                                                  "reductions")}
            log(f"{workload} variant {variant}: {counts[workload][str(variant)]}")
    with open(EXPECTED_COUNTS, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-counts", action="store_true",
                    help="rewrite expected_counts.json (only when a change is meant to "
                         "move iteration counts)")
    args = ap.parse_args()
    if args.record_counts:
        try:
            record_counts(build())
        except (BenchError, subprocess.SubprocessError, OSError) as e:
            log(f"error: {e}")
            return 1
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    variant = args.seed % VARIANTS
    try:
        exe_dir = build()
        host = host_record(exe_dir)
        log(f"workload {args.workload}, seed {args.seed} (variant {variant}), "
            f"trace {args.trace}, host {host}")
        if args.workload == "serve-stream":
            problems, attempted, failed, metrics = serve_workload(
                exe_dir, variant, args.seconds, args.trace)
        else:
            problems, attempted, failed, metrics = solve_workload(
                exe_dir, args.workload, variant, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    for p in problems:
        log(f"CHECK FAILED: {p}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "variant": variant,
                      "trace": args.trace, "host": host}))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
