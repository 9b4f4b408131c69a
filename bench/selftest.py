"""Smoke self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that:
  * every workload finishes traced and untraced, passes its output checks
    and prints exactly the metrics BENCHMARK.json names, each with its unit;
  * a second seed passes the output checks too;
  * the output checks fail a compare whose cells crashed (build_case_table
    turns a crash into '-' cells and exit code 0 or 1), a reference served
    from a stale cache, and a compare whose reference was not cached;
  * run.py exits non-zero without a result where the package is missing;
  * no run leaves a process behind (the spawn pool's resource tracker).
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    """Run the benchmark in a session of its own; the result carries the
    pids of that session still present once run.py has exited."""
    argv = [sys.executable, str(script), "--workload", workload, "--seed",
            str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        out, err = proc.communicate(timeout=170)
    result = subprocess.CompletedProcess(argv, proc.returncode, out, err)
    result.left_behind = session_members(proc.pid)
    return result


def session_members(sid):
    """Pids in session sid, zombies included."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            pids.append(int(stat.parent.name))
    return pids


def check_run(proc, names, label):
    problems = []
    if proc.left_behind:
        problems.append(f"{label}: processes left running: {proc.left_behind}")
    if proc.returncode != 0:
        return problems + [f"{label}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        info = json.loads(proc.stdout.strip().splitlines()[0])
        problems.append(f"{label}: checks failed: {info.get('failures')}")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != names:
        problems.append(f"{label}: metrics {got} != {names}")
    for key, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            problems.append(f"{label}: {key} has no numeric value")
    return problems


def fault_checks():
    """Feed the output checks results they must reject."""
    problems = []
    pkg = run.Package()
    spec = run.workload_spec("compare", "tiny")
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    probe = run.EstimateProbe(pkg)
    try:
        cache = run.prepare(pkg, "compare", spec, 1, workdir)
        text, found = run.run_compare(pkg, spec, 1, workdir, probe, cache)
        if found:
            problems.append(f"sound compare rejected: {found}")

        # a crash inside every sweep, as a failed spawn bootstrap would give
        orig = pkg.analysis.weak_error_sweep

        def crash(*args, **kwargs):
            raise RuntimeError("injected crash")

        pkg.analysis.weak_error_sweep = crash
        try:
            _, found = run.run_compare(pkg, spec, 1, workdir, probe, cache)
        finally:
            pkg.analysis.weak_error_sweep = orig
        if not found:
            problems.append("an all-dash crashed compare passed the checks")

        # a crash in the exp-es cells only: exit code stays 0
        def crash_exp_es(model, kind, *args, **kwargs):
            if kind.value == "exp-es":
                raise RuntimeError("injected crash")
            return orig(model, kind, *args, **kwargs)

        pkg.analysis.weak_error_sweep = crash_exp_es
        try:
            _, found = run.run_compare(pkg, spec, 1, workdir, probe, cache)
        finally:
            pkg.analysis.weak_error_sweep = orig
        if not found:
            problems.append("a compare with crashed exp-es cells passed the checks")

        # a compare that had to simulate its reference
        empty = workdir / "empty"
        empty.mkdir()
        _, found = run.run_compare(pkg, spec, 1, workdir, probe, empty)
        if not any("cache hit" in p for p in found):
            problems.append("a compare reference miss passed the checks")

        # a reference served from a cache: no simulation, no store
        ref_spec = run.workload_spec("reference", "tiny")
        stale = workdir / "stale"
        pkg.reference.fine_grid_reference(
            pkg.cli.CASES["case1"], "x", n0=ref_spec["n0"], p_ref=ref_spec["p_ref"],
            seed=1, workers=1, cache_dir=stale)
        _, found = run.run_reference(pkg, ref_spec, 1, stale, probe)
        if not any("expected a miss" in p for p in found):
            problems.append("a reference cache hit passed the checks")

        # a reference far from the closed form
        if not run.check_reference((0.5, 1e-4), 0.332963, ref_spec["p_ref"]):
            problems.append("a wrong reference value passed the checks")
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def bare_directory_check():
    """Only BENCHMARK.json and bench/: run.py must fail without a result."""
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("reference", 1, 0, cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["run.py without the package did not fail cleanly"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    try:
        for w in (m["name"] for m in spec["workloads"]):
            for trace in (0, 1):
                problems += check_run(bench(w, 1, trace), names[trace],
                                      f"{w} seed 1 trace {trace}")
            problems += check_run(bench(w, 2, 0), names[0], f"{w} seed 2")
        problems += fault_checks()
        problems += bare_directory_check()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
