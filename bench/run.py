"""The polyosc benchmark: one closed-loop client, three workloads.

    python3 bench/run.py --workload lattice_sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* lattice_sweep    -- `polyosc krawtchouk --N N --sweep p=a:b:0.3` in a child
                      forked per op, N from the ladder 24/48/96;
* coherent_session -- an in-process library session over six fixed chains
                      (boson at dims 25/100/200, Krawtchouk at 25/100/150):
                      build, spectrum and the three coherent-state routes
                      per op; afterwards a fixed grid up to dim 400 and
                      |z| = 6, known defects included;
* verify_cold      -- `polyosc verify` in a child forked per op.

`--workload all` runs the three in turn.  The run prints a report, writes
a results file with a machine record to bench/out/, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every public
polyosc function is wrapped and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

# One BLAS thread, set before numpy is first imported: on a host with few
# cores a threaded BLAS times the scheduler more than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("lattice_sweep", "coherent_session", "verify_cold")
SETUP_REPEATS = 5
# Ops generated per run: far more than a run of BENCHMARK.json's length uses.
MAX_OPS = 5000
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("domain_pass_frac", "ratio"),
    ("margin_digits", "digits"),
    ("peak_rss_mb", "MiB"),
)


def import_polyosc():
    """Import polyosc from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import polyosc
    import polyosc.cli

    where = Path(polyosc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError("polyosc imported from %s, not from %s" % (where, SRC))
    return polyosc


def make_inputs(workload, seed, po):
    """The ops of one run, and the warm-up ops that share no input with them.

    Only coherent_session warms up: the other workloads run each op in a
    fresh child, so nothing a warm-up leaves in this process reaches them.
    """
    if workload == "lattice_sweep":
        return {"warm": [], "ops": wl.lattice_inputs(seed, MAX_OPS),
                "block": len(wl.LATTICE_RUNGS), "argv": wl.lattice_argv,
                "check": wl.check_lattice}
    if workload == "coherent_session":
        chains, warm, ops = wl.coherent_inputs(seed, MAX_OPS, po)
        return {"warm": warm, "ops": ops, "chains": chains, "block": len(chains)}
    return {"warm": [], "ops": wl.verify_inputs(seed, MAX_OPS), "block": 1,
            "argv": wl.verify_argv, "check": wl.check_verify}


# --------------------------------------------------------------------------
# machine record


def _blas_threads():
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record():
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "longdouble_bits": int(np.finfo(np.longdouble).bits),
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# measurement


def measure_setup(workload, seed):
    """Median of SETUP_REPEATS fresh interpreters: start to inputs generated."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError("setup-only run failed (exit %s)" % code)
        times.append(t1 - t0)
    return statistics.median(times), times


def tail(latencies):
    """Latency at the highest percentile leaving TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count); with too few samples the
    maximum, at percentile 100.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, n
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_workload(workload, seed, seconds, trace, po, out_dir=OUT):
    """Run one workload closed-loop for `seconds` and return its result dict."""
    import polyosc.cli as cli

    inputs = make_inputs(workload, seed, po)
    setup_s, setup_samples = measure_setup(workload, seed)
    forked = workload != "coherent_session"
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    for w in inputs["warm"]:
        wl.run_coherent(po, w["spec"], w["z"])

    rec = tracing.Recorder() if trace else None
    uninstall = tracing.install(rec) if trace else None
    records, spans = [], []
    next_sid = 0
    peak_child_rss = 0.0
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        t_start = time.perf_counter()
        for k, op in enumerate(inputs["ops"]):
            if k and k % inputs["block"] == 0 and time.perf_counter() - t_start >= seconds:
                break
            if forked:
                out = str(tmp / ("op%d.json" % k))
                argv = inputs["argv"](op, out)
                latency, code, exc, rss, child_spans = wl.run_forked(cli.main, argv, rec, k)
                payload = wl.load_output(out) if exc is None else None
                if os.path.exists(out):
                    os.remove(out)
                reasons, digits = inputs["check"](op, code, exc, payload)
                peak_child_rss = max(peak_child_rss, rss)
                next_sid = tracing.renumber(child_spans, next_sid)
                spans.extend(child_spans)
                desc = " ".join(argv[:-4])
            else:
                spec = inputs["chains"][op["chain"]]
                if rec is not None:
                    rec.op = k
                    root = rec.open("bench.op")
                latency, outputs, exceptions = wl.run_coherent(po, spec, op["z"])
                if rec is not None:
                    rec.close(root)
                reasons, digits = wl.check_coherent(spec, outputs, exceptions)
                desc = "%s z=%.6g%+.6gj" % (spec["name"], op["z"].real, op["z"].imag)
            records.append({"op": k, "rung": op["rung"], "input": desc, "latency_s": latency,
                            "ok": not reasons, "reasons": reasons, "margin_digits": digits})
        else:
            raise RuntimeError("all %d generated ops ran before %ss; raise MAX_OPS"
                               % (len(inputs["ops"]), seconds))
        wall = time.perf_counter() - t_start
    finally:
        if uninstall is not None:
            uninstall()
    if rec is not None and not forked:
        spans = rec.spans
    peak_rss = (peak_child_rss if forked
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    grid = run_domain_grid(po) if workload == "coherent_session" and not trace else None
    return build_result(workload, seed, seconds, trace, records, wall, setup_s, setup_samples,
                        peak_rss, spans, forked, grid)


def run_domain_grid(po):
    """Check every point of the fixed domain grid once, after the timed phase."""
    out = []
    for spec, z in wl.domain_grid(po):
        with warnings.catch_warnings():  # the known overflows warn; the check reports them
            warnings.simplefilter("ignore")
            _, outputs, exceptions = wl.run_coherent(po, spec, z)
        reasons, _ = wl.check_coherent(spec, outputs, exceptions)
        out.append({"input": "%s |z|=%g" % (spec["name"], abs(z)), "reasons": reasons})
    return out


def build_result(workload, seed, seconds, trace, records, wall, setup_s, setup_samples,
                 peak_rss, spans, forked, grid=None):
    n = len(records)
    lat = [r["latency_s"] for r in records]
    n_ok = sum(r["ok"] for r in records)
    margins = [r["margin_digits"] for r in records if r["ok"] and r["margin_digits"] is not None]
    tail_value, tail_pct, tail_n = tail(lat)
    p50 = statistics.median(lat)
    reasons = Counter(reason for r in records for reason in r["reasons"])
    exceptions = Counter(reason.rpartition("raised:")[2] for reason in reasons.elements()
                         if "raised:" in reason)
    e2e = {
        "setup_s": setup_s,
        "op_p50_s": p50,
        "op_tail_s": tail_value,
        "ops_per_s": n_ok / wall,
        "domain_pass_frac": (n_ok / n if grid is None
                             else sum(not g["reasons"] for g in grid) / len(grid)),
        "margin_digits": statistics.median(margins) if margins else 0.0,
        "peak_rss_mb": peak_rss,
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(),
        "correct": bool(n_ok == n and n > 0),
        "attempted": n,
        "failed": n - n_ok,
        "fail_frac": (n - n_ok) / n,
        "failures_by_type": dict(sorted(reasons.items())),
        "exceptions_by_type": dict(sorted(exceptions.items())),
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "wall_s": wall,
        "setup_samples_s": setup_samples,
        "end_to_end": {name: {"value": float(e2e[name]), "unit": unit}
                       for name, unit in END_TO_END},
        "ops": records,
    }
    if grid is not None:
        result["domain_grid"] = grid
        result["domain_failures_by_type"] = dict(sorted(Counter(
            reason for g in grid for reason in g["reasons"]).items()))
    if trace:
        stats = tracing.function_stats(spans, forked)
        result["per_layer"] = tracing.derive(stats, len(spans), n, sum(lat), p50)
        result["functions"] = tracing.function_table(stats)
        result["spans"] = spans
    return result


# --------------------------------------------------------------------------
# output


def report(res):
    lines = ["== %s  seed %d  %ss  trace %d" % (res["workload"], res["seed"], res["seconds"],
                                               res["trace"])]
    m = res["machine"]
    lines.append("machine: %s cpus, python %s, numpy %s, scipy %s, blas %s x%s threads, "
                 "longdouble eps %.3g, commit %s"
                 % (m["nproc"], m["python"], m["numpy"], m["scipy"], m["blas"],
                    m["blas_threads"], m["longdouble_eps"], m["git_commit"]))
    for r in res["ops"]:
        lines.append("op %4d  rung %d  %8.4fs  %s  %s%s" % (
            r["op"], r["rung"], r["latency_s"], "ok  " if r["ok"] else "FAIL", r["input"],
            ("  [" + ", ".join(r["reasons"]) + "]") if r["reasons"] else ""))
    lines.append("end-to-end (%d ops, %d failed):" % (res["attempted"], res["failed"]))
    for name, v in res["end_to_end"].items():
        extra = ""
        if name == "op_tail_s":
            extra = "  (p%.1f of %d samples)" % (res["tail_percentile"], res["tail_samples"])
        lines.append("  %-14s %14.6g %-6s%s" % (name, v["value"], v["unit"], extra))
    lines.append("  %-14s %14.6g %-6s" % ("fail_frac", res["fail_frac"], "ratio"))
    lines.append("failures by type: %s" % (res["failures_by_type"] or "none"))
    lines.append("exceptions by type: %s" % (res["exceptions_by_type"] or "none"))
    for g in res.get("domain_grid", ()):
        lines.append("domain grid  %-34s %s" % (g["input"], ", ".join(g["reasons"]) or "ok"))
    if res["trace"]:
        lines.append("per-layer (per op unless a ratio), with the end-to-end metric each should move:")
        moves = {name: text for name, _, text in tracing.NAMED}
        for name, v in res["per_layer"].items():
            lines.append("  %-44s %12.6g %-6s -> %s" % (name, v["value"], v["unit"], moves[name]))
    lines.append("correct: %s" % res["correct"])
    return "\n".join(lines)


def write_results(res, out_dir=OUT):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (res["workload"], res["seed"], res["trace"])
    spans = res.pop("spans", None)
    with open(out_dir / (stem + ".json"), "w") as fh:
        json.dump(res, fh, indent=1)
    if spans is not None:
        fields = ["name", "start", "end", "parent", "thread", "op", "id", "raised", "note"]
        with gzip.open(out_dir / (stem + "-spans.json.gz"), "wt") as fh:
            json.dump({"fields": fields, "spans": spans}, fh)


def final_line(results):
    key = "per_layer" if results[0]["trace"] else "end_to_end"
    metrics = {}
    for res in results:
        prefix = res["workload"] + "." if len(results) > 1 else ""
        for name, v in res[key].items():
            if not math.isfinite(v["value"]):
                raise ValueError("metric %s is not finite" % name)
            metrics[prefix + name] = v
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("POLYOSC_TOL", None)  # the checks assume the CLI's default tolerance

    po = import_polyosc()
    if args.setup_only:
        make_inputs(args.workload, args.seed, po)
        print("ready", flush=True)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, po)
        print(report(res))
        write_results(res)
        results.append(res)
    print(final_line(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
