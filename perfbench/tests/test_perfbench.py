"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
The smoke runs take about four minutes while the bisection kernel is pure
Python.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import digest  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from diraclab import assemble, sturm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SEED = 7
SECOND_SEED = 90210        # not used while the benchmark was built


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return result, record


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    result, record = bench(workload, SMOKE_SEED, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    info = record["summary"]
    assert info["fail_frac"] == 0.0
    assert min(info["first_op_s"], info["cpu_ops_per_s"], info["wall_ops_per_s"]) > 0
    assert info["ops"] % workloads.WORKLOADS[workload].cycle == 0
    assert record["reference_rounds"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert record["machine"]["DIRAC_LAB_THREADS"] == "1"
    assert record["machine"]["blas_threads"] == "1"


def test_second_seed_reruns_reproducibly():
    _, first = bench("bracket", SECOND_SEED, 0)
    _, again = bench("bracket", SECOND_SEED, 0)
    _, other = bench("bracket", SMOKE_SEED + 1, 0)
    assert first["digest"] == again["digest"]
    assert digest.compare(first["digest"], again["digest"]) == []
    assert digest.compare(first["digest"], other["digest"])


def test_digest_flags_moves_beyond_the_estimate():
    ref = [{"op": 0, "values": [["a", 1.0, 1e-6], ["b", 2.0, 0.0]]}]
    within = [{"op": 0, "values": [["a", 1.0 + 5e-7, 1e-7], ["b", 2.0, 0.0]]}]
    beyond = [{"op": 0, "values": [["a", 1.0 + 2e-6, 1e-7], ["b", 2.0 + 1e-9, 0.0]]}]
    assert digest.compare(ref, within) == []
    assert len(digest.compare(ref, beyond)) == 2


def _first_case(name, **fixed):
    wl = workloads.WORKLOADS[name]
    x = {**wl.draw(np.random.default_rng(SMOKE_SEED), 0), **fixed}
    out = wl.run(x)
    assert wl.check(x, out) == []
    return wl, x, out


def test_bracket_check_counts_a_perturbed_eigenvalue():
    wl, x, report = _first_case("bracket")
    mu = report.merged_values.copy()
    mu[0] = report.full_values[0] - 1e-3     # a piece eigenvalue below lambda_0
    assert wl.check(x, dataclasses.replace(report, merged_values=mu))


def test_dual_route_check_counts_a_perturbed_eigenvalue():
    wl, x, (a, b) = _first_case("dual-route")
    values = b.values.copy()
    values[0] += 0.5 * (values[1] - values[0])
    moved = sturm.SpectrumResult(values, b.error_estimates, b.mesh_size)
    assert wl.check(x, (a, moved))


def test_spectrum_wide_check_counts_a_perturbed_eigenvalue():
    wl, x, result = _first_case("spectrum-wide", delta=0.0, truncation=100)
    records = list(result.records)
    first = records[0]
    assert first.mu0 == 0.0
    records[0] = dataclasses.replace(
        first, value=first.value + 0.5 * (records[1].value - first.value))
    assert wl.check(x, dataclasses.replace(result, records=records))


def test_geometry_check_counts_a_perturbed_eigenvalue():
    wl, x, out = _first_case("geometry")
    lams = out["lams"].copy()
    lams[0] *= 1.0 + 1e-6
    assert wl.check(x, {**out, "lams": lams})


def test_tracer_wraps_imported_names_and_restores_them():
    original = sturm.solve_transformed
    recorder = tracer.Tracer()
    uninstall = tracer.install(recorder)
    try:
        assert assemble.solve_transformed is sturm.solve_transformed
        assert sturm.solve_transformed is not original
        problem = sturm.TransformedProblem(t=1.0, v=lambda u: np.zeros_like(u))
        sturm.solve_transformed(problem, K=2, mesh=64)
    finally:
        uninstall()
    assert sturm.solve_transformed is original
    assert assemble.solve_transformed is original
    stats = recorder.stats
    solve, kernel = stats["sturm.solve_transformed"], stats["sturm.tridiagonal_lowest"]
    assert (solve["calls"], kernel["calls"]) == (1, 2)
    assert kernel["rows"] == 2 * (64 + 32)
    assert solve["self_s"] == pytest.approx(solve["busy_s"] - kernel["busy_s"], abs=1e-9)


def test_sampler_scales_cpu_time_and_leaves_out_its_rounds():
    sampler = speed.Sampler(speed.array_round)
    try:
        begin = sampler.mark()
        while sampler.cpu() - begin[0] < 0.3:
            sum(i * i for i in range(10_000))
        end = sampler.mark()
    finally:
        sampler.stop()
    rounds = end[1] - begin[1]
    assert rounds >= 2
    scaled, cpu = sampler.scale(begin, end)
    assert cpu == pytest.approx(end[0] - begin[0])
    assert cpu >= 0.3 and sampler.spent > 0
    speedups = sampler.speedups[begin[1]:end[1]]
    assert scaled == pytest.approx(cpu * sum(speedups) / rounds)
