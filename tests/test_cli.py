"""Command-line behavior: catalog expansion, config handling, exit codes,
and determinism of the emitted CSV."""

import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

import expsde
from expsde import cli, montecarlo, reference
from expsde.cli import (CASES, ConfigError, RunConfig, build_parser, main,
                        parse_config_text, resolve_config)
from expsde.models import PrototypeModel
from expsde.paths import make_stream
from expsde.schemes import SchemeKind
from conftest import path_terminal

# keep every invocation here small: n and n0 in the hundreds, p <= 6
FAST = ["--n", "200", "--n0", "400", "--p-ref", "5", "--seed", "3"]


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------ case catalog

def test_case_catalog_matches_literal_parameters():
    expected = {
        "case1": (0.0, 0.0, 2.0, 0.1, 1.5),
        "case2": (0.0, 0.0, 3.0, 1.0, 1.25),
        "case3": (0.0, 0.0, 1.0, 1.0, 1.5),
        "case4": (1.0, 1.0, 0.4, 0.1, 3.0),
        "case5": (0.0, 0.0, 10.0, 0.5, 1.125),
        "case6": (0.0, 0.0, 0.01, 0.1, 1.25),
        "case7": (0.0, 0.0, 0.4, 0.1, 3.0),
    }
    assert set(CASES) == set(expected)
    for name, (b0, b1, b2, sigma, alpha) in expected.items():
        model = CASES[name]
        assert model == PrototypeModel(b0=b0, b1=b1, b2=b2, sigma=sigma,
                                       alpha=alpha, x0=1.0, horizon=1.0)


# ------------------------------------------------------------------- check

def test_check_case1_satisfied(capsys):
    rc, out, _ = run(["check", "--case", "case1"], capsys)
    assert rc == 0
    assert "H1: satisfied" in out
    assert "H5: satisfied" in out
    assert "1.93" in out  # kappa slack to three significant digits

def test_check_case3_violated_still_exits_zero(capsys):
    rc, out, _ = run(["check", "--case", "case3"], capsys)
    assert rc == 0
    assert "H5: violated" in out

def test_check_inline_model(capsys):
    rc, out, _ = run(["check", "--b2", "0.5", "--sigma", "1.0", "--alpha", "1.5"],
                     capsys)
    assert rc == 0
    assert out.startswith("inline:")


CHECK_OUTPUT = """\
case1: b0=0 b1=0 b2=2 sigma=0.1 alpha=1.5
H1: satisfied
H4: satisfied
H5: satisfied, κ≈1.93
max provable moment order: 401
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 4
case2: b0=0 b1=0 b2=3 sigma=1 alpha=1.25
H1: satisfied
H4: satisfied
H5: violated, κ≈-3.35
max provable moment order: 7
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 4.5
case3: b0=0 b1=0 b2=1 sigma=1 alpha=1.5
H1: satisfied
H4: satisfied
H5: violated, κ≈-6.31
max provable moment order: 3
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 2
case4: b0=1 b1=1 b2=0.4 sigma=0.1 alpha=3
H1: satisfied
H4: satisfied
H5: violated, κ≈-4.19
max provable moment order: 81
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 2
case5: b0=0 b1=0 b2=10 sigma=0.5 alpha=1.125
H1: satisfied
H4: satisfied
H5: satisfied, κ≈8.52
max provable moment order: 81
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 12.5
case6: b0=0 b1=0 b2=0.01 sigma=0.1 alpha=1.25
H1: satisfied
H4: satisfied
H5: violated, κ≈-0.0535
max provable moment order: 3
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 0.015
case7: b0=0 b1=0 b2=0.4 sigma=0.1 alpha=3
H1: satisfied
H4: satisfied
H5: satisfied, κ≈0.225
max provable moment order: 81
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 2
inline: b0=0.5 b1=0 b2=5 sigma=0.1 alpha=1.4
H1: satisfied
H4: satisfied
H5: violated, κ undefined
max provable moment order: 1001
note: the constant-drift constraint needs alpha > 3/2; alpha=1.4 so the order-one condition is not applicable (raw slack 3.978)
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 9
inline: b0=1 b1=0 b2=5 sigma=0.1 alpha=2
H1: satisfied
H4: satisfied
H5: satisfied, κ≈2.94
max provable moment order: 1001
note: derived drift-derivative bound uses B2' = (2*alpha-1)*B2 = 15
"""


def test_check_output_pinned(capsys):
    # the whole report, byte for byte, for every catalog case and two inline
    # models with b0 > 0 on either side of alpha = 3/2
    out = ""
    for argv in ([["--case", f"case{i}"] for i in range(1, 8)]
                 + [["--b0", "0.5", "--b2", "5", "--sigma", "0.1", "--alpha", "1.4"],
                    ["--b0", "1", "--b2", "5", "--sigma", "0.1", "--alpha", "2"]]):
        rc, text, _ = run(["check"] + argv, capsys)
        assert rc == 0
        out += text
    assert out == CHECK_OUTPUT


# -------------------------------------------------------------- exit codes

class ConfigText(str):
    """An argv entry standing for a config file with this text."""


@pytest.mark.parametrize("argv", [
    ["rate", "--case", "case1", "--scheme", "bogus"],
    ["check", "--case", "case1", "--b2", "3"],          # case and inline
    ["rate", "--case", "case1", "--p-min", "5", "--p-max", "3"],
    ["rate", "--case", "case1", "--test-fn", "cube"],
    ["check", "--b2", "1", "--sigma", "1", "--alpha", "1"],
    ["check", "--b2", "1"],                             # incomplete inline
    ["check"],                                          # no model at all
    ["rate", "--profile", "wide"],                      # profile sans config
    ["check", "--case", "case99"],
    ["simulate", "--case", "case1", "--trajectory", "-1"],
    ["simulate", "--case", "case1", "--seed", "-2"],
    ["weak-error", "--case", "case1", "--p-min", "-1"],
    ["reference", "--case", "case1", "--n0", "0"],
    ["reference", "--case", "case1", "--p-ref", "0"],
    ["reference", "--case", "case1", "--x0", "2"],     # case and inline
    ["check", "--case", "case1", "--b0", "1"],
    ["check", "--case", "case1", "--b1", "1"],
    ["check", "--case", "case1", "--horizon", "2"],
    ["reference", "--case", "case1", "--ref-method", "analytic"],
    ["simulate", "--case", "case1", "--p", "70"],       # beyond MAX_LEVEL
    ["weak-error", "--case", "case1", "--p-min", "69", "--p-max", "70",
     "--n", "2", "--n0", "1", "--p-ref", "1"],
    ["check", "--case", "case1", "--n", "abc"],         # argparse type error
    ["check", "--case", "case1", "--bogus"],            # unknown flag
    ["simulate", "--case", "case1", "--scheme", "sms", "--milstein-half"],
    ["simulate", "--config", ConfigText("case = case1\nmilstein_half = yes\n")],
    ["reference", "--config", ConfigText("case = case1\nref_method = analytic\n")],
])
def test_usage_errors_exit_2(argv, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    for i, arg in enumerate(argv):
        if isinstance(arg, ConfigText):
            cfg.write_text(arg)
            argv = argv[:i] + [str(cfg)] + argv[i + 1:]
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert "error:" in err

def test_help_returns_0(capsys):
    rc, out, _ = run(["compare", "--help"], capsys)
    assert rc == 0
    assert "--workers" in out

def test_no_command_exits_2(capsys):
    rc, _, _ = run([], capsys)
    assert rc == 2

def test_level_bound_message(capsys):
    rc, _, err = run(["simulate", "--case", "case1", "--p", "70"], capsys)
    assert rc == 2
    assert err == "error: p must be <= 30, got 70\n"

def test_missing_output_directory_exits_2_before_simulating(tmp_path, capsys,
                                                            monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("simulated before the output path was checked")
    monkeypatch.setattr(cli, "build_case_table", no_sweep)
    rc, _, err = run(["weak-error", "--case", "case1", "--output",
                      str(tmp_path / "missing" / "x.csv")] + FAST, capsys)
    assert rc == 2
    assert "error: output directory" in err

def test_unwritable_output_exits_2(tmp_path, capsys):
    rc, _, err = run(["simulate", "--case", "case1", "--p", "3",
                      "--output", str(tmp_path)], capsys)   # a directory
    assert rc == 2
    assert err.startswith(f"error: cannot write {tmp_path}: ")


# ------------------------------------------------------------ config files

def test_parse_config_profiles_and_repeats():
    profiles = parse_config_text(
        "# comment\n"
        "case = case1\n"
        "p-min = 2\n"
        "\n"
        "[wide]\n"
        "test_fn = x\n"
        "test_fn = x2\n"
    )
    assert profiles[None] == {"case": "case1", "p_min": "2"}
    assert profiles["wide"] == {"test_fn": ["x", "x2"]}

def test_parse_config_rejects_bare_words():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just-a-word\n")

def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("case = case1\nturbo = yes\n")
    rc, _, err = run(["check", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "turbo" in err

def test_unknown_profile_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = case1\n[wide]\np_max = 4\n")
    rc, _, err = run(["check", "--config", str(cfg), "--profile", "narrow"], capsys)
    assert rc == 2
    assert "narrow" in err

@pytest.mark.parametrize("text, message", [
    ("case = case1\nx0 = 2\n", "not both"),
    ("case = case1\nno_cache = true\nno_cache = true\n", "more than once"),
])
def test_bad_config_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc, _, err = run(["check", "--config", str(cfg)], capsys)
    assert rc == 2
    assert message in err

# one value per RunConfig field, each different from the default and valid
OPTION_SAMPLES = {
    "case": "case2", "b0": "0.5", "b1": "0.25", "b2": "3", "sigma": "0.2",
    "alpha": "1.75", "x0": "1.5", "horizon": "0.5", "scheme": "ses",
    "test_fn": "x2", "p_min": "3", "p_max": "9", "p": "5", "n": "300",
    "n0": "500", "p_ref": "6", "seed": "4", "workers": "2",
    "output": "out.csv", "cache_dir": "cache",
    "no_cache": "true", "trajectory": "7",
}

@pytest.mark.parametrize("opt", fields(RunConfig), ids=lambda f: f.name)
def test_every_option_is_a_flag_and_a_config_key(opt, tmp_path):
    text = OPTION_SAMPLES[opt.name]
    flag = ["--" + opt.name.replace("_", "-")]
    if not isinstance(opt.default, bool):
        flag.append(text)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{opt.name} = {text}\n")
    parser = build_parser()
    for command in ("check", "reference", "weak-error", "compare", "rate",
                    "simulate"):
        from_flag = resolve_config(parser.parse_args([command] + flag))
        from_key = resolve_config(
            parser.parse_args([command, "--config", str(cfg_file)]))
        assert from_flag == from_key
        assert getattr(from_flag, opt.name) != opt.default

def test_config_profile_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "case = case1\nn = 200\nn0 = 400\np-ref = 5\nno-cache = true\n"
        "seed = 3\np_min = 2\np_max = 3\n"
        "[wide]\np_max = 4\n"
    )
    rc, base_out, _ = run(["rate", "--config", str(cfg)], capsys)
    assert rc == 0
    assert ",2,3\n" in base_out          # fit window from the base section
    rc, wide_out, _ = run(["rate", "--config", str(cfg), "--profile", "wide"],
                          capsys)
    assert rc == 0
    assert ",2,4\n" in wide_out          # profile widens it
    rc, flag_out, _ = run(["rate", "--config", str(cfg), "--profile", "wide",
                           "--p-max", "3"], capsys)
    assert rc == 0
    assert flag_out == base_out          # the flag beats the profile


# ---------------------------------------------------------------- simulate

def test_simulate_emits_t_value_rows(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    rc, _, _ = run(["simulate", "--case", "case1", "--p", "3", "--seed", "5",
                    "--output", str(out_file)], capsys)
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 1 + (1 << 3) + 1     # header, start, 8 steps
    assert lines[1] == "0.0,1.0"
    times = [float(row.split(",")[0]) for row in lines[1:]]
    assert times == [k / 8 for k in range(9)]
    values = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(v > 0.0 for v in values)

def test_simulate_terminal_matches_engine(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    rc, _, _ = run(["simulate", "--case", "case1", "--p", "5", "--seed", "9",
                    "--trajectory", "4", "--output", str(out_file)], capsys)
    assert rc == 0
    last_value = float(out_file.read_text().splitlines()[-1].split(",")[1])
    terminal, diverged = path_terminal(
        CASES["case1"], SchemeKind.ExpES, 5, make_stream(9, 4, 5))
    assert not diverged
    assert last_value == terminal

def test_simulate_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--case", "case4", "--scheme", "stes", "--p", "4",
            "--seed", "11"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

def test_simulate_stops_at_first_diverged_step(tmp_path, capsys):
    # case2 tamed Euler at p=2: this path goes negative at t=0.5, and the
    # fractional power of that state diverges the step to t=0.75
    out_file = tmp_path / "path.csv"
    rc, _, err = run(["simulate", "--case", "case2", "--scheme", "tes", "--p", "2",
                      "--seed", "0", "--trajectory", "2", "--output", str(out_file)],
                     capsys)
    assert rc == 1
    assert "case2/tes path diverged at t=0.75" in err
    lines = out_file.read_text().splitlines()
    assert [row.split(",")[0] for row in lines] == ["t", "0.0", "0.25", "0.5"]
    assert float(lines[-1].split(",")[1]) < 0.0


def test_simulate_streams_its_rows(tmp_path):
    # 2^17 + 2 rows, about 5 MB of text, are written as they are stepped
    # and never held in memory together
    out_file = tmp_path / "path.csv"
    tracemalloc.start()
    try:
        rc = main(["simulate", "--case", "case1", "--p", "17",
                   "--output", str(out_file)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 4_000_000
    with out_file.open() as fh:
        assert sum(1 for _ in fh) == (1 << 17) + 2


def test_simulate_two_schemes_exits_2(capsys):
    rc, _, err = run(["simulate", "--case", "case1", "--scheme", "ses",
                      "--scheme", "tes"], capsys)
    assert rc == 2
    assert "exactly one scheme" in err


# ------------------------------------------------------- tables and errors

def test_weak_error_csv_shape(tmp_path, capsys):
    out_file = tmp_path / "detail.csv"
    rc, _, _ = run(["weak-error", "--case", "case1", "--p-min", "2",
                    "--p-max", "3", "--no-cache", "--output", str(out_file)]
                   + FAST, capsys)
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == ("case,scheme,test_fn,p,dt,estimate,stderr,"
                        "reference,ref_method,abs_error,diverged")
    assert len(lines) == 3
    assert lines[1].startswith("case1,exp-es,x,2,0.25,")

def test_weak_error_rerun_byte_identical_through_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["weak-error", "--case", "case1", "--p-min", "2", "--p-max", "3",
            "--cache-dir", str(cache)] + FAST
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (cache / "references.txt").exists()

def test_compare_marks_divergent_cells(capsys):
    rc, out, err = run(["compare", "--case", "case2", "--scheme", "tes",
                        "--scheme", "exp-es", "--p-min", "2", "--p-max", "4",
                        "--no-cache", "--n", "400", "--n0", "800",
                        "--p-ref", "6", "--seed", "3"], capsys)
    assert rc == 0              # the exp-es row keeps finite entries
    header, *rows = out.splitlines()
    assert header == "case,scheme,test_fn,p2,p3,p4"
    tes_row = next(r for r in rows if ",tes," in r)
    exp_row = next(r for r in rows if ",exp-es," in r)
    assert "-" in tes_row.split(",")[3:]   # early levels diverge, printed "-"
    assert all(cell != "-" for cell in exp_row.split(",")[3:])

def test_all_rows_divergent_exits_1(capsys):
    rc, out, _ = run(["weak-error", "--case", "case2", "--scheme", "tes",
                      "--p-min", "2", "--p-max", "3", "--no-cache",
                      "--n", "400", "--n0", "800", "--p-ref", "6",
                      "--seed", "3"], capsys)
    assert rc == 1
    for line in out.splitlines()[1:]:
        assert line.endswith(",1")   # every emitted row carries the marker

def test_rate_summary_schema(capsys):
    rc, out, _ = run(["rate", "--case", "case1", "--p-min", "2", "--p-max", "4",
                      "--no-cache"] + FAST, capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "case,scheme,test_fn,slope,r_squared,p_min,p_max"
    fields = lines[1].split(",")
    assert fields[:3] == ["case1", "exp-es", "x"]
    assert 0.0 < float(fields[3]) < 2.0
    assert fields[5:] == ["2", "4"]


# the start method montecarlo's pool uses on this platform
START_METHOD = "fork" if sys.platform == "linux" else "spawn"


def count_pools(monkeypatch, inline=False, sent=None):
    """Replace the multiprocessing module montecarlo sees with one whose
    contexts record, per pool, the start method and the number of children
    started.  An inline context starts no process: each child's pipe runs
    a task in this process as it is sent, appends (child index, task) to
    sent, and checks that the child never has more than two results
    unread."""
    built = []

    class InlineEnd:
        def __init__(self, child):
            self.child, self.replies = child, []

        def send(self, task):
            func, args = task
            if sent is not None:
                sent.append((self.child, args))
            self.replies.append((True, func(args)))
            assert len(self.replies) <= 2

        def recv(self):
            return self.replies.pop(0)

        def close(self):
            pass

    def get_context(method=None):
        real = multiprocessing.get_context(method)
        pool = len(built)
        built.append((method, 0))

        def pipe():
            if inline:
                return (InlineEnd(built[pool][1]),
                        SimpleNamespace(close=lambda: None))
            return real.Pipe()

        def process(target, args, daemon):
            built[pool] = (method, built[pool][1] + 1)
            if inline:
                return SimpleNamespace(start=lambda: None, terminate=lambda: None,
                                       join=lambda: None)
            return real.Process(target=target, args=args, daemon=daemon)

        return SimpleNamespace(Pipe=pipe, Process=process)

    monkeypatch.setattr(montecarlo, "multiprocessing",
                        SimpleNamespace(get_context=get_context))
    return built


def test_compare_builds_one_pool_per_command(tmp_path, monkeypatch, capsys):
    # 2 schemes x 2 levels, n = 5000 (two chunks): four ensembles that each
    # need the pool, and one pool for all of them
    argv = ["compare", "--case", "case1", "--scheme", "exp-es", "--scheme",
            "ses", "--p-min", "2", "--p-max", "3", "--n", "5000",
            "--n0", "400", "--p-ref", "5", "--seed", "3", "--no-cache"]
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(argv + ["--workers", "1", "--output", str(one)]) == 0
    built = count_pools(monkeypatch)
    assert main(argv + ["--workers", "2", "--output", str(two)]) == 0
    capsys.readouterr()
    assert built == [(START_METHOD, 1)]
    assert two.read_bytes() == one.read_bytes()
    assert multiprocessing.active_children() == []


def test_pool_forked_from_a_warm_parent_matches_one_worker(tmp_path, capsys):
    # a forked worker inherits the parent's stream-key cache and shared
    # generator; an ensemble at another seed and level leaves both holding
    # other state than the command's first chunk needs
    montecarlo.estimate_many(CASES["case1"], SchemeKind.ExpES, ["x"], 5,
                             5000, 11)
    argv = ["compare", "--case", "case1", "--scheme", "exp-es", "--scheme",
            "ses", "--p-min", "2", "--p-max", "3", "--n", "5000",
            "--n0", "400", "--p-ref", "5", "--seed", "3", "--no-cache"]
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(argv + ["--workers", "2", "--output", str(two)]) == 0
    assert main(argv + ["--workers", "1", "--output", str(one)]) == 0
    capsys.readouterr()
    assert two.read_bytes() == one.read_bytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("platform,method",
                         [("linux", "fork"), ("darwin", "spawn")])
def test_pool_forks_on_linux_only(platform, method, monkeypatch):
    # macOS's Accelerate-backed numpy is not fork-safe, and Windows has no
    # fork; the inline pool starts no process on either branch
    built = count_pools(monkeypatch, inline=True)
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    montecarlo.estimate_many(CASES["case1"], SchemeKind.ExpES, ["x"], 2,
                             5000, 3, workers=2)
    assert built == [(method, 1)]


@pytest.mark.skipif(sys.platform != "linux",
                    reason="spawned workers re-import an unguarded script")
def test_unguarded_script_with_workers_exits(tmp_path):
    # a script without an `if __name__ == "__main__":` guard hung at full
    # CPU while spawned workers died re-running it; forked workers do not
    # run it again
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from expsde.cli import CASES\n"
        "from expsde.montecarlo import estimate_many\n"
        "from expsde.schemes import SchemeKind\n"
        "print(estimate_many(CASES['case1'], SchemeKind.ExpES, ['x'], 3, "
        "9000, 1, workers=2)[0].mean)\n")
    src = str(Path(expsde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert math.isfinite(float(proc.stdout))


def test_unguarded_script_with_spawned_workers_fails_fast(tmp_path):
    # where workers are spawned, each re-runs an unguarded script and dies
    # starting a pool of its own, which must end the script with an error
    # that names the guard, not with a wait.  The script's children inherit
    # its stderr, so run() returning at all shows that none outlived it.
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import multiprocessing, os, sys\n"
        "sys.platform = 'darwin'\n"
        "os.cpu_count = lambda: 2\n"
        "from expsde.cli import CASES\n"
        "from expsde.montecarlo import estimate_many\n"
        "from expsde.schemes import SchemeKind\n"
        "try:\n"
        "    estimate_many(CASES['case1'], SchemeKind.ExpES, ['x'], 3, 9000, 1,\n"
        "                  workers=2)\n"
        "finally:\n"
        "    print('children left:', len(multiprocessing.active_children()),\n"
        "          file=sys.stderr)\n")
    src = str(Path(expsde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "exited with code 1" in proc.stderr
    assert 'if __name__ == "__main__":' in proc.stderr
    left = re.findall(r"children left: (\d+)", proc.stderr)
    assert left and set(left) == {"0"}, proc.stderr


@pytest.mark.parametrize("cpus,pools", [(3, [(START_METHOD, 2)]), (None, [])])
def test_pool_is_capped_at_the_cpu_count(cpus, pools, tmp_path, monkeypatch,
                                         capsys):
    # --workers 5000 asks for one process per worker; an unknown CPU count
    # counts as one CPU, which runs every chunk in this process
    argv = ["compare", "--case", "case1", "--scheme", "exp-es", "--p-min",
            "2", "--p-max", "2", "--n", "5000", "--n0", "400", "--p-ref", "5",
            "--seed", "3", "--no-cache"]
    one, many = tmp_path / "w1.csv", tmp_path / "w5000.csv"
    assert main(argv + ["--workers", "1", "--output", str(one)]) == 0
    built = count_pools(monkeypatch, inline=True)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert main(argv + ["--workers", "5000", "--output", str(many)]) == 0
    capsys.readouterr()
    assert built == pools
    assert many.read_bytes() == one.read_bytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("n", [4096, 4097, 12283, 20480, 20 * 4096])
def test_pool_gets_the_chunks_this_process_does_not_run(workers, n,
                                                        monkeypatch):
    # this process runs chunk i when i % workers == 0 and child
    # i % workers - 1 every other chunk, at most two at a time, and one
    # chunk needs no pool at all
    sent = []
    count_pools(monkeypatch, inline=True, sent=sent)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    montecarlo.estimate_many(CASES["case1"], SchemeKind.ExpES, ["x"], 2, n,
                             3, workers=workers)
    starts = range(0, n, montecarlo.CHUNK_TRAJECTORIES)
    expected = [(i % workers - 1, s) for i, s in enumerate(starts) if i % workers]
    assert sorted((child, task[4]) for child, task in sent) == sorted(
        expected if len(starts) > 1 else [])


def test_single_chunk_commands_spawn_nothing(monkeypatch, capsys):
    built = count_pools(monkeypatch)
    rc, _, _ = run(["weak-error", "--case", "case1", "--p-min", "2",
                    "--p-max", "3", "--no-cache", "--workers", "2"] + FAST,
                   capsys)
    assert rc == 0
    assert built == []


# --------------------------------------------------------------- reference

def test_reference_cached_rerun_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["reference", "--case", "case1", "--test-fn", "x",
            "--cache-dir", str(cache)] + FAST
    rc, first, _ = run(argv, capsys)
    assert rc == 0
    rc, second, _ = run(argv, capsys)
    assert rc == 0
    assert first == second
    assert "[fine-grid-mc]" in first

def test_reference_runs_one_ensemble_for_every_test_fn(monkeypatch, capsys):
    # the terminals do not depend on f, so one ensemble serves every
    # --test-fn, and each line reads as that test function alone prints it
    argv = ["reference", "--case", "case1", "--no-cache"] + FAST
    alone = {f: run(argv + ["--test-fn", f], capsys)[1] for f in ("x", "x2")}
    calls = []
    estimate_many = reference.estimate_many

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_many(*args, **kwargs)

    monkeypatch.setattr(reference, "estimate_many", counted)
    rc, out, _ = run(argv + ["--test-fn", "x", "--test-fn", "x2",
                             "--test-fn", "x"], capsys)
    assert rc == 0
    assert len(calls) == 1
    assert out == alone["x"] + alone["x2"] + alone["x"]

def test_unreliable_reference_exits_1_and_writes_nothing(tmp_path, capsys):
    # explosive linear growth: every reference path diverges, so the first
    # test function's error is the command's, before the output is opened
    out = tmp_path / "ref.txt"
    rc, stdout, err = run(["reference", "--b1", "100", "--b2", "0", "--sigma", "0.1",
                           "--alpha", "1.125", "--test-fn", "x", "--test-fn", "x2",
                           "--n0", "500", "--p-ref", "6", "--no-cache",
                           "--output", str(out)], capsys)
    assert rc == 1
    assert stdout == ""
    assert err == ("error: 500 of 500 reference trajectories diverged (> 0.1%); "
                   "reference untrustworthy\n")
    assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_every_flag_and_no_other():
    # the Install and Tests sections show pip's and bench/run.py's flags
    sections = README.read_text().split("\n## ")
    text = "\n".join(s for s in sections if not s.startswith(("Install", "Tests")))
    named = set(re.findall(r"--[a-z0-9]+(?:-[a-z0-9]+)*", text))
    flags = {"--" + f.name.replace("_", "-") for f in fields(RunConfig)}
    assert named <= flags | {"--config", "--profile"}
    assert flags <= named


def test_shared_parser_keeps_no_option_between_calls(tmp_path, capsys):
    # main parses with one parser per process; two calls with different
    # repeatable --scheme/--test-fn lists write what two processes write
    assert cli._shared_parser() is cli._shared_parser()
    calls = [["compare", "--case", "case2", "--scheme", "ses", "--scheme", "tes",
              "--test-fn", "x2", "--p-min", "2", "--p-max", "3", "--no-cache"] + FAST,
             ["compare", "--case", "case2", "--scheme", "exp-es",
              "--p-min", "2", "--p-max", "3", "--no-cache"] + FAST]
    in_process = [run(argv, capsys)[:2] for argv in calls]
    src = str(Path(expsde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    separate = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "expsde"] + argv, cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        separate.append((proc.returncode, proc.stdout))
    assert in_process == separate
    assert in_process[0][1].count("\n") == 3 and ",exp-es," in in_process[1][1]


def test_import_leaves_scipy_unloaded():
    # spawned workers (off Linux) import the package; scipy is only needed
    # by the quadrature, which no worker runs
    src = str(Path(expsde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, expsde; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_run_with_workers_prints_no_runtime_warning(tmp_path):
    # `python -m expsde.cli` imports the package first, and each spawned
    # worker (off Linux) imports it again; a package that imported the CLI
    # eagerly made runpy warn that expsde.cli was already in sys.modules, a
    # varying number of times per run.  n = 5000 spans two chunks, so the
    # pool runs.
    src = str(Path(expsde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("EXPSDE_CACHE_DIR", None)
    for module in ("expsde.cli", "expsde"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "weak-error", "--case", "case1",
             "--n", "5000", "--n0", "64", "--p-ref", "3", "--p-min", "2",
             "--p-max", "3", "--no-cache", "--workers", "2"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("case,scheme,")
        assert "RuntimeWarning" not in proc.stderr
