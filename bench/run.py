"""expsde benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py --workload {reference,compare,compare-w2} --seed N
                         --seconds S --trace {0,1}

Run from a source checkout; the package is imported from ../src relative to
this file and from nowhere else.  Every run repeats one operation of the
workload back to back for about S seconds, checks each result, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics (tracing off);
--trace 1 alternates untraced and traced operations and gives the per-layer
metrics plus the tracing overhead.  Lines before the last one record the
machine, the code, the inputs and (traced) the aggregated span table.

The workloads stand for the two ways the package spends its time
(bench/README.md has the metric definitions and their predicted movers):

  reference   a case1 fine-grid reference at p = 12 into an empty cache:
              long paths over few streams, a cache miss and a write.
  compare     cli compare on case2 over five schemes, reading a reference
              that set-up put in the cache: short paths over many streams.
  compare-w2  the same with --workers 2 on two of the schemes: the only
              workload in which the process pool runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# the schemes cli compare runs by default, in row order
COMPARE_SCHEMES = ("exp-es", "ses", "sms", "tes", "stes")

# Sizes.  n0 of reference is two 4096-path chunks.  compare keeps n above
# one chunk (4096) so that compare-w2 really sends work to the pool; its
# level range is 2..4 because compare-w2 starts a fresh spawn pool for every
# (scheme, level) pair, about 1.2 s each on a 2-core machine, and the whole
# benchmark has to fit its run budget.  p = 2 and 3 are still the levels at
# which tes and stes diverge on case2.  compare-w2 runs two of the five
# schemes (six pools, not fifteen), so that one run holds several
# operations and its median is not a single sample.
WORKLOADS = {
    "full": {
        "reference": {"case": "case1", "n0": 8192, "p_ref": 12},
        "compare": {"case": "case2", "n": 8192, "p_min": 2, "p_max": 4,
                    "n0": 4096, "p_ref": 10, "workers": 1},
    },
    "tiny": {
        "reference": {"case": "case1", "n0": 1024, "p_ref": 6},
        "compare": {"case": "case2", "n": 4160, "p_min": 2, "p_max": 3,
                    "n0": 1024, "p_ref": 6, "workers": 1},
    },
}
W2_SCHEMES = ("exp-es", "ses")

SETUP_REPEATS = 5
# reference check: |mean - closed form| <= Z * stderr + 2 * BIAS_PER_DT * dt.
# The frozen case1 exp-es errors of acceptance criterion 2 are about
# 0.136 * dt, so 0.15 * dt bounds the O(dt) bias; doubling it leaves room.
Z = 4.0
BIAS_PER_DT = 0.15


def workload_spec(name, scale):
    specs = WORKLOADS[scale]
    if name == "compare-w2":
        return dict(specs["compare"], workers=2, schemes=W2_SCHEMES)
    return dict(specs[name])


def work_per_op(name, spec):
    """Trajectory-steps the inputs request: n * 2^p summed over what the
    operation simulates (the cached compare reference is not simulated)."""
    if name == "reference":
        return spec["n0"] << spec["p_ref"]
    levels = range(spec["p_min"], spec["p_max"] + 1)
    return len(compared(spec)) * sum(spec["n"] << p for p in levels)


def compared(spec):
    """The schemes a compare operation runs, in row order."""
    return spec.get("schemes", COMPARE_SCHEMES)


# ------------------------------------------------------------ the package

class Package:
    """The expsde modules, imported from this checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import expsde
        from expsde import analysis, cli, montecarlo, paths, reference, schemes
        if Path(expsde.__file__).resolve().parent != SRC / "expsde":
            raise ImportError(f"expsde imported from {expsde.__file__}, "
                              f"not from {SRC}")
        self.analysis, self.cli, self.montecarlo = analysis, cli, montecarlo
        self.paths, self.reference, self.schemes = paths, reference, schemes


def prepare(pkg, name, spec, seed, workdir):
    """Build the workload's inputs under workdir; returns the cache dir the
    operation reads (compare) or None.  This is what set-up time covers."""
    if name == "reference":
        return None
    cache = workdir / "cache"
    pkg.reference.fine_grid_reference(
        pkg.cli.CASES[spec["case"]], "x", n0=spec["n0"], p_ref=spec["p_ref"],
        seed=seed, workers=1, cache_dir=cache)
    if len(cache_records(pkg, cache)) != 1:
        raise RuntimeError(f"set-up did not write one reference into {cache}")
    return cache


def cache_records(pkg, cache):
    path = cache / pkg.reference.CACHE_FILENAME
    return path.read_text().splitlines() if path.exists() else []


class EstimateProbe:
    """Keeps what reference.estimate_many returns.  fine_grid_reference does
    not expose n_diverged, and whether it simulated at all is how a cache
    miss shows from outside."""

    def __init__(self, pkg):
        self.results = []
        self._module = pkg.reference
        self._orig = pkg.reference.estimate_many

        @functools.wraps(self._orig)
        def probe(*args, **kwargs):
            out = self._orig(*args, **kwargs)
            self.results.append(out)
            return out

        self._module.estimate_many = probe

    def close(self):
        self._module.estimate_many = self._orig


# ------------------------------------------------------------ operations

def run_reference(pkg, spec, seed, cache, probe):
    """One reference operation into the empty cache dir; returns (output,
    problems)."""
    probe.results.clear()
    ref = pkg.reference.fine_grid_reference(
        pkg.cli.CASES[spec["case"]], "x", n0=spec["n0"], p_ref=spec["p_ref"],
        seed=seed, workers=1, cache_dir=cache)
    problems = []
    if len(probe.results) != 1:
        problems.append("reference was served from a cache; expected a miss")
    elif probe.results[0][0].n_diverged != 0:
        problems.append(f"{probe.results[0][0].n_diverged} reference paths diverged")
    if len(cache_records(pkg, cache)) != 1:
        problems.append("reference miss did not write exactly one cache record")
    return (ref.value, ref.uncertainty), problems


def check_reference(output, exact, p_ref):
    mean, stderr = output
    tol = Z * stderr + 2.0 * BIAS_PER_DT * 2.0 ** -p_ref
    if not abs(mean - exact) <= tol:
        return [f"reference {mean!r} is {abs(mean - exact):.3g} from the closed "
                f"form {exact!r}; tolerance {tol:.3g}"]
    return []


def compare_argv(spec, seed, cache, out):
    schemes = [a for s in spec.get("schemes", ()) for a in ("--scheme", s)]
    return ["compare", "--case", spec["case"], *schemes,
            "--p-min", str(spec["p_min"]), "--p-max", str(spec["p_max"]),
            "--n", str(spec["n"]), "--n0", str(spec["n0"]),
            "--p-ref", str(spec["p_ref"]), "--workers", str(spec["workers"]),
            "--seed", str(seed), "--cache-dir", str(cache), "--output", str(out)]


def run_compare(pkg, spec, seed, workdir, probe, cache):
    """One cli compare operation; returns (csv text, problems)."""
    out = workdir / "compare.csv"
    if out.exists():
        out.unlink()
    before = cache_records(pkg, cache)
    probe.results.clear()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = pkg.cli.main(compare_argv(spec, seed, cache, out))
    text = out.read_text() if out.exists() else ""
    problems = check_compare_csv(rc, text, err.getvalue(), spec)
    if probe.results or cache_records(pkg, cache) != before:
        problems.append("compare reference was simulated; expected a cache hit")
    return text, problems


# The one cell warning a sound compare may print: a scheme other than exp-es
# kept fewer than two usable levels for its rate fit (tes and stes diverge
# at the coarse levels of case2).  Any other warning is a reference or sweep
# failure that build_case_table caught and turned into '-' cells.
FIT_NOTE = re.compile(r"warning: [^/]+/(?!exp-es/)[^/]+/[^:]+: insufficient data: ")


def check_compare_csv(rc, text, stderr, spec):
    """Structure of a compare result: exit 0, one row per scheme with one
    cell per level, every cell numeric or '-', the exp-es row all numeric,
    and no cell error reported on stderr.  A crash that build_case_table
    turned into dash cells fails here."""
    problems = []
    if rc != 0:
        problems.append(f"compare exited {rc}")
    for line in stderr.splitlines():
        if line.startswith("warning:") and not FIT_NOTE.match(line):
            problems.append(f"compare reported a cell error: {line}")
    levels = [f"p{p}" for p in range(spec["p_min"], spec["p_max"] + 1)]
    lines = text.splitlines()
    if not lines or lines[0].split(",") != ["case", "scheme", "test_fn"] + levels:
        return problems + ["compare header is missing or wrong"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[1] if len(r) > 1 else None for r in rows] != list(compared(spec)):
        return problems + ["compare rows are not the compared schemes"]
    for row in rows:
        if len(row) != 3 + len(levels) or row[0] != spec["case"] or row[2] != "x":
            problems.append(f"malformed compare row {','.join(row)}")
            continue
        for cell in row[3:]:
            if cell == "-":
                if row[1] == "exp-es":
                    problems.append("exp-es has a '-' cell")
                continue
            try:
                value = float(cell)
            except ValueError:
                problems.append(f"non-numeric cell {cell!r} in {row[1]}")
                continue
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"bad error value {cell!r} in {row[1]}")
    return problems


# ------------------------------------------------------------ measurement

def rusage_cpu():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_.ru_utime + self_.ru_stime, kids.ru_utime + kids.ru_stime)


def guarded(operation, *args):
    """operation(*args) -> (output, problems); an exception is a failed
    operation, not the end of the run."""
    try:
        return operation(*args)
    except Exception as exc:
        return None, [f"{type(exc).__name__}: {exc}"]


class Runner:
    """Runs and checks operations of one workload, collecting samples."""

    def __init__(self, pkg, name, spec, seed, workdir):
        self.pkg, self.name, self.spec, self.seed = pkg, name, spec, seed
        self.workdir = workdir
        self.probe = EstimateProbe(pkg)
        self.cache = prepare(pkg, name, spec, seed, workdir)
        self.attempted = 0
        self.failures = []
        self.expected = None
        if name == "reference":
            model = pkg.cli.CASES[spec["case"]]
            self.exact = pkg.reference.chi_square_moment(model, 1.0).value
        elif spec["workers"] > 1:
            # the result every worker count must reproduce byte for byte
            serial = dict(spec, workers=1)
            text, problems = guarded(run_compare, pkg, serial, seed, workdir,
                                     self.probe, self.cache)
            self._record(problems)
            self.expected = text

    def _record(self, problems):
        self.attempted += 1
        if problems:
            self.failures.append(problems)

    def once(self, tracer=None):
        """One operation.  Returns a sample dict (wall, cpu, child cpu)."""
        pkg = self.pkg
        if tracer is not None:
            install(tracer, pkg)
        if self.name == "reference":
            cache = Path(tempfile.mkdtemp(prefix="ref-", dir=self.workdir))
        cpu0, kid0 = rusage_cpu()
        t0 = time.perf_counter()
        try:
            if self.name == "reference":
                output, problems = guarded(run_reference, pkg, self.spec,
                                           self.seed, cache, self.probe)
            else:
                output, problems = guarded(run_compare, pkg, self.spec, self.seed,
                                           self.workdir, self.probe, self.cache)
        finally:
            wall = time.perf_counter() - t0
            cpu1, kid1 = rusage_cpu()
            if tracer is not None:
                tracer.restore()
        if self.name == "reference":
            shutil.rmtree(cache)
        if tracer is not None:
            problems += layer_problems(self.name, tracer)
        if output is not None:
            if self.name == "reference":
                problems += check_reference(output, self.exact, self.spec["p_ref"])
            if self.expected is None:
                self.expected = output
            elif output != self.expected:
                problems.append("output differs from the first operation's"
                                if self.spec.get("workers", 1) == 1 else
                                "output differs from the one-worker output")
        self._record(problems)
        return {"wall": wall, "cpu": (cpu1 - cpu0) + (kid1 - kid0),
                "child_cpu": kid1 - kid0}

    def close(self):
        self.probe.close()


def measure(runner, seconds, trace):
    """Operations back to back until the next one would overrun `seconds`.
    With trace, untraced and traced operations alternate, one of each at
    least.  Returns (untraced samples, [(sample, tracer)])."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            tracer = Tracer()
            traced.append((runner.once(tracer), tracer))
            last = traced[-1][0]["wall"]
        else:
            plain.append(runner.once())
            last = plain[-1]["wall"]
        enough = plain and (traced or not trace)
        if enough and time.perf_counter() - start + last > seconds:
            return plain, traced


def setup_seconds(name, seed, scale):
    """Wall times of fresh processes that import the package and prepare
    the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(prefix="setup-", dir=WORK) as d:
            argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", name, "--seed", str(seed), "--scale", scale,
                    "--work-dir", d]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return times


# ------------------------------------------------------------ metrics

def end_to_end(name, spec, plain, setup_s, peak_rss_mb):
    wall = statistics.median(s["wall"] for s in plain)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "traj_steps_per_s": (work_per_op(name, spec) / wall, "1/s"),
        "cpu_s": (statistics.median(s["cpu"] for s in plain), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def tail_note(plain):
    """The tail percentile worth reporting is the highest one with at least
    ten samples beyond it.  With n samples that is the (1 - 10/n) quantile,
    which is above the median only from n = 21 on."""
    n = len(plain)
    if n < 21:
        return {"samples": n, "tail": None,
                "why": "fewer than 21 samples: no percentile above the median "
                       "has ten samples beyond it"}
    q = 1.0 - 10.0 / n
    walls = sorted(s["wall"] for s in plain)
    return {"samples": n, "tail": {"quantile": q,
                                   "wall_s": walls[int(math.floor(q * (n - 1)))]}}


def per_layer(sample, tracer, untraced_wall):
    """Per-layer metrics of one traced operation: name -> (value, unit)."""
    t = tracer
    c = t.counts
    sv_names = [n for n in t.stats if n.startswith("schemes.step_values.")]
    sv_calls = sum(t.calls(n) for n in sv_names)
    sv_total = sum(t.total_s(n) for n in sv_names)
    elems = sum(v for k, v in c.items() if k.startswith("elems."))
    traj = c["traj_steps"]
    streams = t.calls("paths.make_stream")
    draws = c["draws"]

    def per(num_s, den):
        return num_s * 1e9 / den if den else 0.0

    m = {
        "paths.make_stream.calls": (streams, "count"),
        "paths.make_stream.self_s": (t.self_s("paths.make_stream"), "s"),
        "paths.make_stream.ns_per_call": (per(t.self_s("paths.make_stream"), streams), "ns"),
        "paths.standard_normals.calls": (t.calls("paths.standard_normals"), "count"),
        "paths.standard_normals.draws": (draws, "count"),
        "paths.standard_normals.self_s": (t.self_s("paths.standard_normals"), "s"),
        "paths.standard_normals.ns_per_draw": (per(t.self_s("paths.standard_normals"), draws), "ns"),
        "schemes.step_values.calls": (sv_calls, "count"),
        "schemes.step_values.elems": (elems, "count"),
        "schemes.step_values.self_s": (sum(t.self_s(n) for n in sv_names), "s"),
        "schemes.step_values.ns_per_elem": (per(sv_total, elems), "ns"),
    }
    for scheme in COMPARE_SCHEMES:
        key = "schemes.step_values." + scheme
        m[key + ".ns_per_elem"] = (per(t.total_s(key), c["elems." + scheme]), "ns")
    m.update({
        "models.drift_eval.calls": (t.calls("models.drift_eval"), "count"),
        "models.drift_eval.self_s": (t.self_s("models.drift_eval"), "s"),
        "montecarlo.estimate_many.calls": (t.calls("montecarlo.estimate_many"), "count"),
        "montecarlo.estimate_many.self_s": (t.self_s("montecarlo.estimate_many"), "s"),
        "montecarlo.self_ns_per_traj_step": (per(t.self_s("montecarlo.estimate_many"), traj), "ns"),
        "montecarlo.traj_steps": (traj, "count"),
        "montecarlo.diverged_paths": (c["diverged_paths"], "count"),
        "montecarlo.effective_ratio": (c["n_effective"] / c["n_requested"]
                                       if c["n_requested"] else 0.0, "ratio"),
        "montecarlo.pool.pools": (c["pools"], "count"),
        "montecarlo.pool.wait_s": (t.total_s("montecarlo.pool"), "s"),
        "montecarlo.pool.child_cpu_s": (sample["child_cpu"], "s"),
        "montecarlo.pool.child_cpu_ns_per_traj_step": (per(sample["child_cpu"], traj), "ns"),
        "reference.fine_grid_reference.calls": (t.calls("reference.fine_grid_reference"), "count"),
        "reference.fine_grid_reference.s": (t.total_s("reference.fine_grid_reference"), "s"),
        "reference.cache_hits": (c["cache_hits"], "count"),
        "reference.cache_misses": (c["cache_misses"], "count"),
        "analysis.build_case_table.self_s": (t.self_s("analysis.build_case_table"), "s"),
        "analysis.render_compare_csv.s": (t.total_s("analysis.render_compare_csv"), "s"),
        "cli.main.self_s": (t.self_s("cli.main"), "s"),
        "trace.overhead_frac": (sample["wall"] / untraced_wall - 1.0, "ratio"),
    })
    return m


def layer_problems(name, tracer):
    """Cache isolation as the spans see it."""
    c = tracer.counts
    want = (0, 1) if name == "reference" else (1, 0)
    if (c["cache_hits"], c["cache_misses"]) != want:
        return [f"traced reference cache hits/misses {c['cache_hits']}/"
                f"{c['cache_misses']}, expected {want[0]}/{want[1]}"]
    return []


def median_metrics(dicts):
    out = {}
    for key, (_, unit) in dicts[0].items():
        out[key] = (statistics.median(d[key][0] for d in dicts), unit)
    return out


# ------------------------------------------------------------ manifest

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "expsde").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(name, spec, args):
    import numpy
    import scipy
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "inputs": spec,
        "workers": spec.get("workers", 1),
        "traj_steps_per_op": work_per_op(name, spec),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# ------------------------------------------------------------ main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["reference", "compare", "compare-w2"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=sorted(WORKLOADS), default="full",
                    help="input sizes; tiny is for bench/selftest.py")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and prepare inputs in --work-dir, then exit")
    ap.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("EXPSDE_CACHE_DIR", None)
    spec = workload_spec(args.workload, args.scale)
    pkg = Package()
    if args.setup_only:
        prepare(pkg, args.workload, spec, args.seed, Path(args.work_dir))
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(pkg, args.workload, spec, args.seed, workdir)
        try:
            plain, traced = measure(runner, args.seconds, bool(args.trace))
        finally:
            runner.close()
        me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_rss_mb = max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux
        setup_times = setup_seconds(args.workload, args.seed, args.scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    e2e = end_to_end(args.workload, spec, plain, statistics.median(setup_times),
                     peak_rss_mb)
    failures = runner.failures
    info = {"manifest": manifest(args.workload, spec, args),
            "wall_samples": tail_note(plain),
            "wall_s_each": [s["wall"] for s in plain],
            "setup_s_each": setup_times}
    if args.trace:
        untraced_wall = e2e["wall_s"][0]
        metrics = median_metrics([per_layer(s, t, untraced_wall)
                                  for s, t in traced])
        last_sample, last_tracer = traced[-1]
        spans = last_tracer.span_table()
        info["end_to_end_untraced"] = {k: v for k, (v, _) in e2e.items()}
        info["layer_share_of_traced_wall"] = {
            name: st["self_s"] / last_sample["wall"] for name, st in spans.items()}
        info["spans"] = spans
        info["pool_note"] = ("pool children run under spawn, where no spans "
                             "exist: montecarlo.pool.* come from parent-side "
                             "spans and RUSAGE_CHILDREN")
    else:
        metrics = e2e
    info["failures"] = failures
    print(json.dumps(info, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def stop_resource_tracker():
    """The spawn pool starts multiprocessing's resource tracker, a child
    process that outlives every pool and would otherwise end only after
    this process has exited, unwaited for.  Stop it and wait for it."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    except ImportError as exc:
        print(f"error: cannot import expsde from {SRC}: {exc}", file=sys.stderr)
        code = 2
    finally:
        stop_resource_tracker()
    sys.exit(code)
