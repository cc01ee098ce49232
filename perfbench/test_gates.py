"""The benchmark's gates fail loudly on wrong answers and missed spans.

Run from the root of a checkout (each case runs the benchmark briefly):

    python3 -m pytest -q perfbench/test_gates.py
"""
import json
import os
import shutil
import subprocess
import sys
import textwrap
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import balanced_forge._kernel  # noqa: E402,F401  (selects the kernel before any fake)
import run  # noqa: E402


def bench(args, patch=""):
    """Run the benchmark in a subprocess after applying `patch` in it."""
    script = textwrap.dedent("""
        import sys
        sys.path[:0] = ["perfbench", "src"]
        import run
        from balanced_forge import enumeration, games
        %s
        sys.exit(run.main(%r))
    """) % (textwrap.dedent(patch), args)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, timeout=170,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    report = json.loads(lines[-2])["report"] if len(lines) > 1 else None
    return proc.returncode, result, report


def args_for(workload, trace=0):
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]


def test_clean_run_passes():
    code, result, report = bench(args_for("hyper"))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert report["end_to_end"]["fail_ratio"] == 0
    raw = report["raw"]
    scaled = raw["op_p50_ms"] * run.REFERENCE_LOOP_S * 1e3 / raw["speed_loop_ms"]
    assert report["end_to_end"]["op_p50_ms"] == pytest.approx(scaled, rel=1e-9)


def test_catalog_missing_one_collection_fails_every_op():
    code, result, report = bench(args_for("catalog"), """
        build = enumeration.enumerate_mbc
        def short(n, threads=None):
            cat = build(n, threads)
            if n == 5:
                del cat.collections[7]
            return cat
        enumeration.enumerate_mbc = short
    """)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert report["end_to_end"]["fail_ratio"] == 1.0
    assert "1291 collections" in report["problems"][0]


def test_core_certificate_with_one_weight_changed_fails():
    code, result, report = bench(args_for("core"), """
        from fractions import Fraction
        solve = games.core_lp
        def tampered(game):
            verdict = solve(game)
            if verdict.nonempty:
                verdict.payment = (verdict.payment[0] + 1,) + verdict.payment[1:]
            else:
                first = verdict.collection.coalitions[0]
                verdict.collection.weights[first] += Fraction(1, 7)
            return verdict
        games.core_lp = tampered
    """)
    assert code == 1
    assert result["failed"] == result["attempted"] >= 8
    assert report["end_to_end"]["fail_ratio"] == 1.0


def test_traced_run_fails_when_a_layer_records_no_span():
    # a wrapper placed only on the defining module misses the names that
    # other modules bound at import time
    code, result, report = bench(args_for("catalog", trace=1), """
        import spans
        every = spans.bindings
        spans.bindings = lambda original: every(original)[:1]
    """)
    assert code == 1
    assert not result["correct"]
    assert any("recorded no span" in p and "kernel.direct_search" in p
               for p in report["problems"])


def test_routes_ops_must_start_cold():
    # running ops in the set-up process lets the balancedness cache carry over
    code, result, report = bench(args_for("routes"), """
        run.forked = lambda fn: fn()
    """)
    assert code == 1
    assert any("would not start cold" in p for p in report["problems"])


def test_kernel_twin_disagreement_is_reported(monkeypatch):
    fake = types.ModuleType("balanced_forge._speedups")
    fake.direct_search = lambda n, first=0: []
    fake.cover_search = lambda n, k: []
    monkeypatch.setitem(sys.modules, "balanced_forge._speedups", fake)
    workload = types.SimpleNamespace(kernel_inputs=(("direct_search", (3,)),))
    status, problem = run.twin_check(workload)
    assert status == "failed" and "direct_search" in problem


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args_for("catalog"),
                          cwd=tmp_path, timeout=60, stdout=subprocess.PIPE, text=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    table = run.PER_LAYER if trace else run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec[key]] == list(table)
