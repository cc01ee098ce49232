"""Benchmark of balanced-forge: four closed-loop workloads, checked exactly.

Run from the root of a checkout; the package is imported from `src/`:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

One process runs one workload on one thread. It sets up several times
(set-up time is their median), then runs ops for --seconds and checks
every output. With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 the run measures half the time
untraced and half traced, and reports the per-layer metrics. The line
before it is a JSON report with provenance, every metric computed and the
base of every ratio. The exit code is 0 when every op was correct, 1 when
an op or a self-check failed, and 2 when the package cannot be found.
`--workload all` runs every workload in its own process and prints a table.

Times are reported at a reference speed. The speed of a shared host's
CPU drifts by up to a factor of two over minutes, in wall-clock and CPU
time alike, so every run also times a fixed integer loop (`speed_loop`)
between ops and around set-ups, and scales its times by
REFERENCE_LOOP_S / (median loop time). The raw times and the loop time are
in the report line.
"""
import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

from spans import Stat, Tracer

clock = time.perf_counter

# time of one speed_loop() at the reference speed
REFERENCE_LOOP_S = 0.005
# a measured phase times the loop again once this much time has passed
SPEED_SAMPLE_EVERY_S = 0.1

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# cover_search spans are reported per regularity k for these k
COVER_KS = (1, 2, 3, 4)

PER_LAYER = (
    [
        ("kernel.direct_search.calls", "count/op"),
        ("kernel.direct_search.self_s", "s/op"),
        ("kernel.direct_search.results", "count/op"),
    ]
    + [(name % k, unit) for k in COVER_KS for name, unit in (
        ("kernel.cover_search.k%d.self_s", "s/op"),
        ("kernel.cover_search.k%d.results", "count/op"))]
    + [
        ("kernel.cover_search.empty_k_share", "ratio"),
        ("enumeration.enumerate_mbc.self_s", "s/op"),
        ("enumeration.catalog_bytes_per_entry", "B"),
        ("enumeration.save_catalog.self_s", "s/op"),
        ("enumeration.save_catalog.bytes", "B/op"),
        ("enumeration.load_catalog.self_s", "s/op"),
        ("enumeration.mbc_via_duality.self_s", "s/op"),
        ("enumeration.mbc_via_duality.rejected", "count/op"),
        ("enumeration.enumerate_mbc_oracle.self_s", "s/op"),
        ("enumeration.enumerate_uniform.self_s", "s/op"),
        ("balanced.is_balanced.calls", "count/op"),
        ("balanced.is_balanced.hit_ratio", "ratio"),
        ("balanced.cache_entries", "count"),
        ("balanced.find_balancing_weights.calls", "count/op"),
        ("balanced.find_balancing_weights.self_s", "s/op"),
        ("balanced.from_regular_hypergraph.self_s", "s/op"),
        ("balanced.efficiency.calls", "count/op"),
        ("balanced.efficiency.self_s", "s/op"),
        ("simplex.simplex_min.calls", "count/op"),
        ("simplex.simplex_min.self_s", "s/op"),
        ("simplex.simplex_min.cols_mean", "count"),
        ("simplex.solve_square.calls", "count/op"),
        ("simplex.solve_square.self_s", "s/op"),
        ("games.core_lp.self_s", "s/op"),
        ("games.core_mbc.self_s", "s/op"),
        ("games.nonempty_ratio", "ratio"),
        ("hypergraph.dual.self_s", "s/op"),
        ("hypergraph.is_minimally_uniform.self_s", "s/op"),
        ("hypergraph.is_minimally_regular.self_s", "s/op"),
        ("decomposition.decompose.self_s", "s/op"),
        ("decomposition.decompose_all.self_s", "s/op"),
        ("decomposition.partitions", "count/op"),
        ("counting.count_spanning.self_s", "s/op"),
        ("setup.kernel.direct_search.self_s", "s"),
        ("setup.enumeration.enumerate_mbc.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the package is missing."""


def import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "balanced_forge", "__init__.py")):
        raise BenchError("no src/balanced_forge under %s; run from a checkout" % root)
    sys.path.insert(0, src)
    import balanced_forge

    if not os.path.abspath(balanced_forge.__file__).startswith(os.path.abspath(src)):
        raise BenchError("balanced_forge was imported from %s, not from %s"
                         % (balanced_forge.__file__, src))


def git_commit(root):
    """The checkout's commit read from .git, or None outside a git repository."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the package sources, so results name the code measured."""
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "balanced_forge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx", ".c")):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(root, args):
    from balanced_forge import _kernel

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "kernel": _kernel.KERNEL,
        "python": platform.python_version(),
        "nproc": affinity or os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def twin_check(wl):
    """Compare the compiled and pure kernels on this workload's kernel inputs."""
    try:
        from balanced_forge import _speedups
    except ImportError:
        return "skipped: compiled extension not importable", None
    from balanced_forge import _mbc_pure

    for fn, args in wl.kernel_inputs:
        if getattr(_mbc_pure, fn)(*args) != getattr(_speedups, fn)(*args):
            return "failed", "kernels differ on %s%r" % (fn, args)
    return "agree on %d inputs" % len(wl.kernel_inputs), None


def forked(fn):
    """Run fn() in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError("forked op exited with status %d" % status)
    return json.loads(data)


def speed_loop():
    """Seconds for a fixed loop on small ints: no package code, no allocation
    the garbage collector tracks, so nothing a program change can speed up."""
    t0 = clock()
    x = 0
    for i in range(40000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return clock() - t0


class Speed:
    """Loop times sampled alongside a measurement."""

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self):
        self.samples.append(speed_loop())
        self._last = clock()

    def sample_if_due(self):
        if self._last is None or clock() - self._last >= SPEED_SAMPLE_EVERY_S:
            self.sample()

    @property
    def scale(self):
        """Factor from raw times to times at the reference speed."""
        return REFERENCE_LOOP_S / statistics.median(self.samples)


class Phase:
    """Op timings, failures and per-op cache readings of one measured phase."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.problems = []
        self.hit_ratios = []
        self.cache_entries = []
        self.speed = Speed()

    @property
    def ops_per_s(self):
        """Ops per second of timed calls, at the reference speed."""
        total = sum(self.times) * self.speed.scale
        return len(self.times) / total if total else 0.0

    def cold_state_problems(self):
        """Ops forked from one set-up must all see the same fresh cache."""
        out = []
        if len(set(self.cache_entries)) > 1:
            out.append("ops ended with different cache sizes: %r" % self.cache_entries)
        if len(set(self.hit_ratios)) > 1:
            out.append("is_balanced hit ratio differs between ops: %r" % self.hit_ratios)
        return out


def one_op(wl, state, inp):
    """Run and check one op; returns (seconds, problem or None)."""
    dt, out = wl.run(state, inp)
    return dt, wl.check(state, inp, out)


def forked_op(wl, state, inp, tracer, phase):
    from balanced_forge import balanced

    if balanced._balanced_cache:
        raise RuntimeError("the set-up process holds %d cache entries, so ops would not "
                           "start cold" % len(balanced._balanced_cache))

    def child():
        if tracer is not None:
            tracer.reset()
        dt, problem = one_op(wl, state, inp)
        spans = tracer.export() if tracer is not None else None
        return dt, problem, len(balanced._balanced_cache), spans

    dt, problem, entries, spans = forked(child)
    phase.cache_entries.append(entries)
    if spans is not None:
        tracer.merge(spans)
        calls = spans["stats"].get("balanced.is_balanced", [0])[0]
        phase.hit_ratios.append(spans["hits"] / calls if calls else 0.0)
    return dt, problem


def measure(wl, state, seconds, tracer=None):
    """Closed loop for `seconds` (at least wl.min_ops ops)."""
    phase = Phase()
    start = clock()
    while phase.attempted < wl.min_ops or clock() - start < seconds:
        phase.speed.sample_if_due()
        phase.attempted += 1
        try:
            inp = wl.next_input()
            if wl.isolate:
                dt, problem = forked_op(wl, state, inp, tracer, phase)
            else:
                dt, problem = one_op(wl, state, inp)
        except Exception as exc:
            dt, problem = None, "%s: %s" % (type(exc).__name__, exc)
        if problem is None:
            phase.times.append(dt)
        else:
            phase.problems.append(problem)
    return phase


def timed_setups(wl, reps):
    """Returns the last set-up's state, every set-up's time and loop times."""
    times = []
    speed = Speed()
    state = None
    for _ in range(reps):
        state = None
        gc.collect()
        speed.sample()
        t0 = clock()
        state = wl.setup()
        times.append(clock() - t0)
        speed.sample()
    return state, times, speed


def traced_phase(wl, seconds):
    """One traced set-up, then a traced closed loop; returns its spans."""
    tracer = Tracer()
    tracer.install()
    try:
        state, _, _ = timed_setups(wl, 1)
        setup_spans = tracer.stats
        tracer.reset()
        phase = measure(wl, state, seconds, tracer)
    finally:
        tracer.uninstall()
    return tracer, setup_spans, phase


def catalog_bytes_per_entry():
    """Bytes held by a fresh n=5 catalog, per collection (tracemalloc)."""
    from balanced_forge import enumeration

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cat = enumeration.enumerate_mbc(5)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / cat.count


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def ms_quantile(times, q):
    """The q-quantile of a list of seconds, in ms (inclusive method)."""
    if not times:
        return 0.0
    if len(times) == 1:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[round(q * 100) - 1] * 1e3


def end_to_end(phase, setup_times, setup_speed):
    """End-to-end metrics at the reference speed, and the raw figures."""
    scale = phase.speed.scale
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_speed.scale,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": ms_quantile(phase.times, 0.5) * scale,
        "peak_rss_mb": peak_rss_mb(),
        "op_p90_ms": ms_quantile(phase.times, 0.9) * scale,
        "fail_ratio": len(phase.problems) / phase.attempted,
        "setup_samples": len(setup_times),
        "op_samples": len(phase.times),
    }
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s * scale,
        "op_p50_ms": ms_quantile(phase.times, 0.5),
        "op_p90_ms": ms_quantile(phase.times, 0.9),
        "setup_speed_loop_ms": statistics.median(setup_speed.samples) * 1e3,
        "speed_loop_ms": statistics.median(phase.speed.samples) * 1e3,
        "speed_loop_samples": len(phase.speed.samples),
    }
    return metrics, raw


def layer_metrics(wl, tracer, setup_spans, phase, untraced, bytes_per_entry):
    """Per-layer metrics, each per traced op unless its unit says otherwise."""
    stats = tracer.stats
    ops = max(len(phase.times), 1)

    def get(name):
        return stats.get(name, Stat())

    m = {}
    s = get("kernel.direct_search")
    m["kernel.direct_search.calls"] = s.calls / ops
    m["kernel.direct_search.self_s"] = s.self_time / ops
    m["kernel.direct_search.results"] = s.results / ops
    cover = {k: v for k, v in stats.items() if k.startswith("kernel.cover_search.")}
    for k in COVER_KS:
        per_k = [v for name, v in cover.items() if name.endswith(".k%d" % k)]
        m["kernel.cover_search.k%d.self_s" % k] = sum(v.self_time for v in per_k) / ops
        m["kernel.cover_search.k%d.results" % k] = sum(v.results for v in per_k) / ops
    cover_time = sum(v.self_time for v in cover.values())
    empty_time = sum(v.self_time for v in cover.values() if v.results == 0)
    m["kernel.cover_search.empty_k_share"] = empty_time / cover_time if cover_time else 0.0
    for layer in ("enumeration.enumerate_mbc", "enumeration.save_catalog",
                  "enumeration.load_catalog", "enumeration.mbc_via_duality",
                  "enumeration.enumerate_mbc_oracle", "enumeration.enumerate_uniform",
                  "balanced.find_balancing_weights", "balanced.from_regular_hypergraph",
                  "balanced.efficiency", "simplex.simplex_min", "simplex.solve_square",
                  "games.core_lp", "games.core_mbc", "hypergraph.dual",
                  "hypergraph.is_minimally_uniform", "hypergraph.is_minimally_regular",
                  "decomposition.decompose", "decomposition.decompose_all",
                  "counting.count_spanning"):
        m[layer + ".self_s"] = get(layer).self_time / ops
    for layer in ("balanced.is_balanced", "balanced.find_balancing_weights",
                  "balanced.efficiency", "simplex.simplex_min", "simplex.solve_square"):
        m[layer + ".calls"] = get(layer).calls / ops
    m["enumeration.catalog_bytes_per_entry"] = bytes_per_entry
    m["enumeration.save_catalog.bytes"] = get("enumeration.save_catalog").results / ops
    m["enumeration.mbc_via_duality.rejected"] = get("enumeration.mbc_via_duality").results / ops
    m["decomposition.partitions"] = get("decomposition.decompose_all").results / ops
    balanced_calls = get("balanced.is_balanced").calls
    m["balanced.is_balanced.hit_ratio"] = tracer.hits / balanced_calls if balanced_calls else 0.0
    m["balanced.cache_entries"] = float(phase.cache_entries[-1] if phase.cache_entries else 0)
    simplex = get("simplex.simplex_min")
    m["simplex.simplex_min.cols_mean"] = simplex.results / simplex.calls if simplex.calls else 0.0
    verdicts, nonempty = wl.tallies.get("verdicts", 0), wl.tallies.get("nonempty", 0)
    m["games.nonempty_ratio"] = nonempty / verdicts if verdicts else 0.0
    for layer in ("kernel.direct_search", "enumeration.enumerate_mbc"):
        m["setup.%s.self_s" % layer] = setup_spans.get(layer, Stat()).self_time
    m["trace.overhead_ratio"] = phase.ops_per_s / untraced.ops_per_s if untraced.ops_per_s else 0.0
    bases = {
        "per_op": "%d traced ops" % len(phase.times),
        "balanced.is_balanced.hit_ratio": "%d hits of %d calls" % (tracer.hits, balanced_calls),
        "games.nonempty_ratio": "%d nonempty of %d verdicts" % (nonempty, verdicts),
        "trace.overhead_ratio": "traced %.4g / untraced %.4g ops/s" % (
            phase.ops_per_s, untraced.ops_per_s),
    }
    return m, bases


def missing_spans(stats, expected):
    have = {name for name, s in stats.items() if s.calls}
    return [layer for layer in expected
            if layer not in have and not any(h.startswith(layer + ".") for h in have)]


def run_workload(root, args):
    import workloads  # imports the package, so only after import_package

    wl = workloads.WORKLOADS[args.workload](args.seed)
    report = {"workload": wl.name, "provenance": provenance(root, args)}
    problems = []
    traced = args.trace == 1
    try:
        report["kernel_twins"], problem = twin_check(wl)
        problems += [problem] if problem else []
        state, setup_times, setup_speed = timed_setups(wl, 1 if traced else wl.setup_reps)
        untraced = measure(wl, state, args.seconds / 2.0 if traced else args.seconds)
        phases = [untraced]
        report["end_to_end"], report["raw"] = end_to_end(untraced, setup_times, setup_speed)
        if traced:
            state = None
            bytes_per_entry = catalog_bytes_per_entry() if wl.measures_catalog_bytes else 0.0
            tracer, setup_spans, phase = traced_phase(wl, args.seconds / 2.0)
            phases.append(phase)
            missing = (missing_spans(setup_spans, wl.expected_setup)
                       + missing_spans(tracer.stats, wl.expected))
            if missing:
                problems.append("layers recorded no span: %s" % ", ".join(missing))
            report["per_layer"], report["bases"] = layer_metrics(
                wl, tracer, setup_spans, phase, untraced, bytes_per_entry)
            shown, values = PER_LAYER, report["per_layer"]
        else:
            shown, values = END_TO_END, report["end_to_end"]
    finally:
        wl.close()
    for phase in phases:
        problems += phase.problems + phase.cold_state_problems()
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.problems) for p in phases)
    correct = not problems
    report["problems"] = problems[:20]
    print(json.dumps({"report": report}, sort_keys=True))
    # a failed self-check fails the run even when every op was right
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct or failed else 1,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in shown}}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    rows = []
    code = 0
    for name in ("catalog", "core", "routes", "hyper"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            rows.append((name, None, None))
            code = max(code, 1)
            continue
        rows.append((name, json.loads(lines[-2])["report"], json.loads(lines[-1])))
    units = dict(END_TO_END + [("op_p90_ms", "ms"), ("fail_ratio", "ratio")])
    for name, report, result in rows:
        if report is None:
            print("%-8s no result" % name)
            continue
        e2e = report["end_to_end"]
        shown = ["setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb", "fail_ratio"]
        if name in ("core", "hyper"):
            shown.insert(3, "op_p90_ms")
        cells = ["%s=%.6g %s" % (k, e2e[k], units[k]) for k in shown]
        print("%-8s %s  (correct=%s, %d ops, kernel=%s, raw p50 %.6g ms, loop %.4g ms)" % (
            name, "  ".join(cells), result["correct"], e2e["op_samples"],
            report["provenance"]["kernel"], report["raw"]["op_p50_ms"],
            report["raw"]["speed_loop_ms"]))
        if args.trace:
            for k, v in sorted(report["per_layer"].items()):
                print("%-8s   %s = %.6g" % ("", k, v))
        for problem in report["problems"]:
            print("%-8s   problem: %s" % ("", problem))
    return code


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["catalog", "core", "routes", "hyper", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        import_package(root)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(root, args)


if __name__ == "__main__":
    sys.exit(main())
