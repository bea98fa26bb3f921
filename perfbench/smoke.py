#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes about a minute.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json lists exactly the metrics the benchmark prints,
that one round of every workload passes its checks while a single flipped bit
in one checked output is caught (the negative control), that both modes print
the result line the contract asks for, that the traced arith run writes a
span file that agrees with its metrics and shows the layers it bypasses at 0,
and that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (after the source path is set)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(done):
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_manifest():
    import layers
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    print("ok  BENCHMARK.json lists the printed metrics")


def check_negative_control():
    from workloads import WORKLOADS, Checker
    for name, cls in WORKLOADS.items():
        wl = cls(0)
        checker = Checker(corrupt=True)
        run.run_pass(wl, checker, rounds=1)
        wl.finish(checker)
        # exactly the flipped check fails: the others pass, the flip is caught
        assert checker.failed == 1 and checker.attempted > 1, (name, checker.failures)
        print(f"ok  {name}: {checker.attempted} checks, the flipped one fails")


def check_untraced():
    done = bench("--workload", "arith", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = result_of(done)
    assert done.returncode == 0 and result["correct"] and result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    print("ok  untraced arith run")


def check_traced():
    import numpy as np
    done = bench("--workload", "arith", "--seed", "3", "--seconds", "1", "--trace", "1")
    result = result_of(done)
    assert done.returncode == 0 and result["correct"], done.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in run.BYPASSED["arith"]:
        assert metrics[name] == 0, name
    assert metrics["normal.normal_mul.calls"] > 0 and metrics["fail_frac"] == 0
    spans = np.load(HERE / "out" / "trace-arith.npz")
    lo, hi = int(spans["setup_end"]), int(spans["pass_end"])
    names = list(spans["names"])
    in_pass = spans["name"][lo:hi]
    assert (in_pass == names.index("normal.normal_mul")).sum() == \
        metrics["normal.normal_mul.calls"]
    assert (spans["end"] >= spans["start"]).all()
    print("ok  traced arith run, span file and bypassed layers")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print("ok  refuses to run without the package sources")


if __name__ == "__main__":
    check_manifest()
    check_negative_control()
    check_untraced()
    check_traced()
    check_bare_directory()
    print("smoke test passed")
