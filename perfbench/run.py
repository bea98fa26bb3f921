#!/usr/bin/env python3
"""Benchmark of charfield2: four closed-loop workloads, one caller, one thread.

    python3 perfbench/run.py --workload arith|oracle|search|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).

--trace 0 measures the end-to-end metrics untraced: set-up time (median of
five fresh interpreters, each importing charfield2 and setting the workload
up), peak resident memory, and the time of one round of the workload (sum
over the round's items of each item's median time) while the loop repeats
rounds for --seconds.

--trace 1 runs a fixed number of rounds three times: untraced, traced with
spans, and traced counting calls only; it prints the per-layer metrics and
fails when the two traced passes disagree on any call count.  It writes the
spans to perfbench/out/trace-<workload>.npz.

Every output that is timed is checked outside the timed region; the last
line of stdout is a JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every check passed, 1 when one failed, and
2 when the benchmark cannot run here.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S, SpeedRef

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("arith", "oracle", "search", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "imports"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- environment -------------------------------------------------------------

def git_commit():
    """The commit of the checkout, read from .git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    from importlib import metadata
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "absent"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "sympy": sympy_version, "commit": git_commit(),
            "CHARFIELD2_MAX_N": os.environ.get("CHARFIELD2_MAX_N", "unset")}


# --- set-up probes -----------------------------------------------------------------

def setup_once(workload, seed):
    """Seconds to import charfield2 and set the workload up, in this process
    (which must not have imported charfield2 yet), and the workload."""
    t0 = time.perf_counter()
    import charfield2  # noqa: F401
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed)
    return time.perf_counter() - t0, wl


def _child(*args, python_flags=()):
    cmd = [sys.executable, *python_flags, str(Path(__file__).resolve()), *args]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"probe failed: {done.stderr.strip()[-400:]}")
    return done


def setup_probe(workload, seed):
    done = _child("--probe", "setup", "--workload", workload, "--seed", str(seed))
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def import_times():
    """Cumulative import seconds of charfield2 and of sympy in a fresh
    interpreter, from -X importtime (sympy reads 0 if it is not imported)."""
    done = _child("--probe", "imports", "--workload", "cli",
                  python_flags=("-X", "importtime"))
    out = {"charfield2": 0.0, "sympy": 0.0}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            pkg = parts[2].strip()
            if pkg in out:
                out[pkg] = int(parts[1]) / 1e6
    return out


# --- the closed loop ---------------------------------------------------------------

def run_pass(wl, checker, deadline=None, rounds=None, tracer=None, ref=None):
    """Run rounds of the workload until `deadline` (at least one whole round)
    or for `rounds` rounds.  Returns each item's list of durations (s); with
    a SpeedRef, durations are at the reference machine speed."""
    from tracer import OFF, SPANS
    taken = []                    # (item, start, seconds)
    mode = tracer.mode if tracer else OFF
    with ref.sampling() if ref else contextlib.nullcontext():
        rnd = 0
        while True:
            for i, label in enumerate(wl.labels):
                if mode == SPANS:
                    tracer.begin_work(f"{rnd}:{label}")
                spent = ref.spent if ref else 0.0
                t0 = time.perf_counter()
                try:
                    out = wl.run(i, rnd)
                except Exception as exc:  # a raised exception is a failed check
                    out, error = None, exc
                else:
                    error = None
                dt = time.perf_counter() - t0
                taken.append((i, t0, dt - (ref.spent - spent if ref else 0.0)))
                if tracer:
                    tracer.mode = OFF
                if error is None:
                    guarded(checker, f"check {label}", wl.check, i, rnd, out, checker)
                else:
                    checker.error(f"{wl.name} {label}", error)
                if tracer:
                    tracer.mode = mode
                last = i == len(wl.labels) - 1
                if deadline is not None and (rnd or last) and time.perf_counter() >= deadline:
                    break
            else:
                rnd += 1
                if rounds is None or rnd < rounds:
                    continue
            break
    samples = [[] for _ in wl.labels]
    for i, t0, dt in taken:
        samples[i].append(ref.rescale(t0, dt) if ref else dt)
    return samples


def guarded(checker, what, fn, *args):
    """Call fn; an exception it raises counts as a failed check."""
    try:
        fn(*args)
    except Exception as exc:
        checker.error(what, exc)


def medians(samples):
    return [statistics.median(s) for s in samples]


# --- modes -----------------------------------------------------------------------------

def timed_setup(ref, setup):
    """Run `setup()`, which returns (seconds, value); return the seconds at
    the reference machine speed, from kernel runs just before and after it,
    and the value."""
    ref.sample(3)
    start = time.perf_counter()
    seconds, value = setup()
    ref.sample(3)
    return ref.rescale(start, seconds), value


def untraced(args, checker, main_setup_s, wl, ref):
    setups = [main_setup_s] + [
        timed_setup(ref, lambda: (setup_probe(args.workload, args.seed), None))[0]
        for _ in range(SETUP_SAMPLES - 1)]
    samples = run_pass(wl, checker, deadline=time.perf_counter() + args.seconds, ref=ref)
    guarded(checker, "final checks", wl.finish, checker)
    meds = medians(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "round_s": sum(meds),
    }
    detail = {"setup_samples_s": setups, "rounds": min(len(s) for s in samples),
              "kernel_s": {"median": statistics.median(ref.times), "min": min(ref.times),
                           "max": max(ref.times), "n": len(ref.times),
                           "reference": REF_S},
              "items": {lab: {"n": len(s), "median_s": m, "max_s": max(s)}
                        for lab, s, m in zip(wl.labels, samples, meds)},
              "rates": wl.rates(meds)}
    return metrics, detail


def traced(args, checker):
    import charfield2
    import layers
    from tracer import COUNT, OFF, SPANS, Tracer, descendants_of, span_stats
    from workloads import WORKLOADS

    imports = import_times()
    tracer = Tracer(charfield2)
    tracer.install()
    tracer.mode = SPANS
    tracer.begin_work("setup")
    wl = WORKLOADS[args.workload](args.seed)
    tracer.mode = OFF
    tracer.uninstall()
    setup_end = tracer.span_count()

    rounds = wl.trace_rounds
    plain = run_pass(wl, checker, rounds=rounds)
    tracer.install()
    tracer.mode = SPANS
    spanned = run_pass(wl, checker, rounds=rounds, tracer=tracer)
    pass_end = tracer.span_count()
    tracer.mode = COUNT
    run_pass(wl, checker, rounds=rounds, tracer=tracer)
    tracer.mode = OFF
    tracer.uninstall()
    guarded(checker, "final checks", wl.finish, checker)

    names = tracer.names
    pass_stats = span_stats(tracer, setup_end, pass_end, layers.DURATION_NAMES)
    setup_stats = span_stats(tracer, 0, setup_end)
    first = {k: v["calls"] for k, v in pass_stats.items()}
    second = {names[i]: c for i, c in enumerate(tracer.counts) if c}
    checker.check("traced call counts repeat", second, first)

    meds = medians(plain)
    metrics = {name: 0.0 for name in layers.per_layer_units()}
    metrics.update(layers.span_metrics(pass_stats, setup_stats))
    metrics["tables.find_roots.field_products"] = descendants_of(
        tracer, setup_end, pass_end, "tables.find_roots", "field.poly_mul_mod")
    normal_calls = pass_stats.get("normal.is_normal_element", {}).get("calls", 0)
    if normal_calls:
        metrics["normal.is_normal_element.true_frac"] = (
            tracer.truthy[names.index("normal.is_normal_element")] / normal_calls)
    metrics["import.charfield2_s"] = imports["charfield2"]
    metrics["import.sympy_s"] = imports["sympy"]
    metrics["trace_overhead_frac"] = sum(map(sum, spanned)) / sum(map(sum, plain)) - 1
    metrics.update(wl.rates(meds))
    detail = {"spans": pass_end, "imports_s": imports}
    if args.workload == "arith":
        for label, m in zip(wl.labels, meds):
            op, rest = label.split(".", 1)
            metrics[f"extbasis.{op}.{rest}.us.p50"] = m * 1e6
        fits, rows = layers.cost_model(wl.labels, meds)
        for n, fit in fits.items():
            for key, value in fit.items():
                metrics[f"extbasis.cost_model.n{n}.{key}"] = value
        detail["cost_model"] = rows
    metrics["fail_frac"] = checker.failed / max(checker.attempted, 1)
    detail["separation"] = separation(args.workload, metrics)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}.npz", setup_end=setup_end,
                 pass_end=pass_end)
    return metrics, detail


# Calls that each workload's timed region must not make: the layer each
# workload bypasses (the prediction is no change there).
BYPASSED = {
    "arith": ("field.poly_mul_mod.calls", "tables.find_roots.calls"),
    "oracle": ("normal.normal_mul.calls",),
    "search": ("normal.normal_mul.calls", "extbasis.mul.calls"),
    "cli": (),
}


def separation(workload, metrics):
    return {name: metrics[name] == 0 for name in BYPASSED[workload]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "charfield2" / "__init__.py").is_file():
        print(f"error: no charfield2 sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if "CHARFIELD2_MAX_N" in os.environ:
        print("error: CHARFIELD2_MAX_N must be unset: the workloads assume the "
              "default degree cap of 64", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy (used only to summarise spans) stays on one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    if args.probe == "imports":
        import charfield2  # noqa: F401
        return 0
    if args.probe == "setup":
        seconds, _ = setup_once(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.trace:
        from layers import per_layer_units
        from workloads import Checker
        checker = Checker()
        metrics, detail = traced(args, checker)
        units = per_layer_units()
    else:
        ref = SpeedRef()
        main_setup_s, wl = timed_setup(ref, lambda: setup_once(args.workload, args.seed))
        from workloads import Checker
        checker = Checker()
        metrics, detail = untraced(args, checker, main_setup_s, wl, ref)
        units = END_TO_END

    env = environment()
    for key, value in env.items():
        print(f"# env {key} = {value}")
    for msg in checker.failures:
        print(f"# FAILED {msg}", file=sys.stderr)
    for name, ok in detail.get("separation", {}).items():
        print(f"# bypassed layer {name} == 0: {'yes' if ok else 'NO'}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    correct = checker.failed == 0
    result = {"correct": correct, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "run"
    (OUT / f"result-{args.workload}-{mode}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "env": env, "detail": detail,
         "failures": checker.failures}, indent=2, default=float) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
