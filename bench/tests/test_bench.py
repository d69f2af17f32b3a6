"""Tests of the benchmark itself: checker, metric names, span bookkeeping.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

po = run.import_polyosc()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# the outside checker


def _coherent_case():
    spec = {"name": "krawtchouk-6", "dim": None, "chain": po.krawtchouk_chain(0.3, 6)}
    z = 0.4 + 0.1j
    _, outputs, exceptions = wl.run_coherent(po, spec, z)
    assert not exceptions
    return spec, outputs


def test_coherent_checker_passes_good_op():
    spec, outputs = _coherent_case()
    reasons, digits = wl.check_coherent(spec, outputs, {})
    assert reasons == []
    assert digits > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("route", wl.ROUTES)
def test_coherent_checker_flags_nonfinite(route, bad):
    spec, outputs = _coherent_case()
    outputs[route] = outputs[route].copy()
    outputs[route][-1] = bad
    reasons, digits = wl.check_coherent(spec, outputs, {})
    assert "%s:nonfinite" % route in reasons
    assert digits is None


def test_coherent_checker_flags_raised_and_spectrum():
    spec, outputs = _coherent_case()
    del outputs["series"]
    outputs["spectrum"] = outputs["spectrum"] + 1e-6
    reasons, _ = wl.check_coherent(spec, outputs, {"series": "ArithmeticError"})
    assert "series:raised:ArithmeticError" in reasons
    assert "spectrum:bound" in reasons


def _lattice_payload(op):
    rows = [dict({f: 1e-12 for f in wl.LATTICE_FIELDS}, p=p, N=op["N"], worst_residual=1e-12,
                 **{"pass": True})
            for p in wl._sweep_values(op["start"], wl.SWEEP_COUNT)]
    return {"command": "krawtchouk", "results": rows, "pass": True}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lattice_checker_ignores_pass_flags(bad):
    op = {"N": 8, "start": 0.1234567}
    payload = _lattice_payload(op)
    assert wl.check_lattice(op, 0, None, payload) == ([], pytest.approx(4.0))
    payload["results"][-1]["transport"] = bad
    reasons, digits = wl.check_lattice(op, 0, None, payload)
    assert reasons == ["row:transport:nonfinite"]
    assert digits is None


def test_lattice_checker_flags_raised_and_exit():
    op = {"N": 8, "start": 0.1234567}
    assert wl.check_lattice(op, None, "ZeroDivisionError", None)[0] == [
        "raised:ZeroDivisionError", "output:missing"]
    assert "exit:1" in wl.check_lattice(op, 1, None, _lattice_payload(op))[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_checker_flags_nonfinite_criterion(bad):
    crits = [{"id": k, "measured": 1e-12, "bound": 1e-8, "pass": True} for k in range(1, 11)]
    assert wl.check_verify({}, 0, None, {"criteria": crits})[0] == []
    crits[3]["measured"] = bad
    reasons, _ = wl.check_verify({}, 0, None, {"criteria": crits, "pass": True})
    assert reasons == ["criterion_4:nonfinite"]


def test_domain_grid_is_fixed_and_reaches_the_known_defects():
    grid = wl.domain_grid(po)
    assert [(s["name"], z) for s, z in grid] == [(s["name"], z) for s, z in wl.domain_grid(po)]
    assert max(abs(z) for _, z in grid) == pytest.approx(6.0)
    assert max(s["chain"].valid_depth + 1 if s["dim"] is None else s["dim"] for s, _ in grid) == 400


def test_domain_pass_frac_counts_grid_points(tiny_runs):
    res = tiny_runs["coherent_session", 0]
    grid = res["domain_grid"]
    assert len(grid) == 3
    frac = res["end_to_end"]["domain_pass_frac"]["value"]
    assert frac == sum(not g["reasons"] for g in grid) / 3
    # boson dim 25 at |z| = 6 is past the series route's edge
    assert grid[-1]["reasons"] and 0 < frac < 1
    assert res["failed"] == 0 and res["correct"]


def test_margin_is_finite_for_zero_residual():
    assert math.isfinite(wl.margin(1e-8, 0.0))
    assert wl.margin(1e-8, 1e-10) == pytest.approx(2.0)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = run.tail(list(range(40)))
    assert (value, pct, n) == (29, 75.0, 40)
    assert sum(v > value for v in range(40)) == 10


# --------------------------------------------------------------------------
# seeded inputs


def test_inputs_repeat_per_seed_and_hold_equal_thirds():
    a = wl.lattice_inputs(7, 300)
    b = wl.lattice_inputs(7, 300)
    assert a == b
    assert [sum(op["rung"] == r for op in a) for r in range(3)] == [100, 100, 100]
    starts = [op["start"] for op in a]
    assert len(set(starts)) == len(starts)
    assert not any(wl._short_dyadic(p) for s in starts for p in wl._sweep_values(s, wl.SWEEP_COUNT))
    _, _, ops = wl.coherent_inputs(7, 60, po)
    _, _, again = wl.coherent_inputs(7, 60, po)
    assert [op["z"] for op in ops] == [op["z"] for op in again]
    chains, _, _ = wl.coherent_inputs(7, 1, po)
    assert all(wl.Z_MIN <= abs(op["z"]) <= chains[op["chain"]]["zmax"] for op in ops)
    assert [sum(op["rung"] == r for op in ops) for r in range(3)] == [20, 20, 20]


# --------------------------------------------------------------------------
# tiny runs: metric names and spans


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One block of each workload, untraced and traced, at reduced sizes."""
    patch = pytest.MonkeyPatch()
    patch.setattr(wl, "LATTICE_RUNGS", (4, 5, 6))
    patch.setattr(wl, "COHERENT_CHAINS", (("boson", 5, 1.0), ("boson", 8, 1.0), ("boson", 12, 1.0),
                                          ("krawtchouk", 5, 0.5), ("krawtchouk", 8, 0.5),
                                          ("krawtchouk", 12, 0.5)))
    patch.setattr(wl, "DOMAIN_GRID", (("boson", 6, (0.5,)), ("krawtchouk", 6, (0.5,)),
                                      ("boson", 25, (6.0,))))
    patch.setattr(run, "SETUP_REPEATS", 1)
    out = tmp_path_factory.mktemp("out")
    runs = {}
    try:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                runs[workload, trace] = run.run_workload(workload, 3, 0.0, trace, po, out_dir=out)
    finally:
        patch.undo()
    return runs


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tiny_runs, workload, trace):
    res = dict(tiny_runs[workload, trace])
    line = json.loads(run.final_line([res]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in want)
    for m in want:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert line["correct"]


def test_named_metrics_match_benchmark_json():
    assert [n for n, _, _ in tracing.NAMED] == [m["name"] for m in SPEC["per_layer"]]
    assert [n for n, _ in run.END_TO_END] == [m["name"] for m in SPEC["end_to_end"]]


def _by_op(spans):
    ops = defaultdict(list)
    for sp in spans:
        ops[sp[tracing.OP]].append(sp)
    return ops


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_spans_nest_and_self_times_add_up(tiny_runs, workload):
    spans = tiny_runs[workload, 1]["spans"]
    assert spans
    by_sid = {sp[tracing.SID]: sp for sp in spans}
    selfs = tracing.self_times(spans)
    for sp in spans:
        assert selfs[sp[tracing.SID]] >= 0.0
        parent = by_sid.get(sp[tracing.PARENT])
        if sp[tracing.PARENT] is not None:
            assert parent[tracing.OP] == sp[tracing.OP]
            assert parent[tracing.START] <= sp[tracing.START] <= sp[tracing.END] <= parent[tracing.END]
    threaded = workload == "lattice_sweep"  # cmd_krawtchouk's pool overlaps its children
    for op_spans in _by_op(spans).values():
        roots = [sp for sp in op_spans if sp[tracing.PARENT] is None]
        assert [r[tracing.NAME] for r in roots] == ["bench.op"]
        total = sum(selfs[sp[tracing.SID]] for sp in op_spans)
        root = roots[0][tracing.END] - roots[0][tracing.START]
        if threaded:
            assert total >= root * (1 - 1e-9)
        else:
            assert total == pytest.approx(root, rel=1e-9, abs=1e-9)


def test_wrappers_are_removed_after_a_traced_run(tiny_runs):
    import polyosc.acceptance as acc
    import polyosc.coherent as co

    assert not hasattr(co.eval_monic_tilde, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for fn in acc.ALL_CRITERIA)


def test_traced_run_reaches_every_layer(tiny_runs):
    calls = {}
    for workload in run.WORKLOADS:
        for name, v in tiny_runs[workload, 1]["per_layer"].items():
            if name.count(".") == 1 and name.endswith(".calls"):
                calls[name] = calls.get(name, 0.0) + v["value"]
    missing = [n for n, v in calls.items() if v == 0]
    assert missing == []


# --------------------------------------------------------------------------
# the contract's bare-directory run


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
