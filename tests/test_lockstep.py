"""Lockstep ensembles: every scheme of an ensemble steps on one pass of draws.

estimate_many and weak_error_sweep take one scheme or a sequence of them.
With a sequence, every scheme steps the same paths on the same increments,
drawn once per (level, chunk).  Each result must equal, bit for bit, what a
call with that scheme alone gives (compared through repr, which is exact for
floats and treats NaN means as equal), including when some schemes have
diverged on every path long before the others finish.
"""

from types import SimpleNamespace

import pytest

from expsde import cli, montecarlo
from expsde.cli import CASES
from expsde.models import PrototypeModel
from expsde.montecarlo import (
    CHUNK_TRAJECTORIES,
    TILE_STEPS,
    estimate_many,
    weak_error_sweep,
    worker_pool,
)
from expsde.paths import make_stream
from expsde.schemes import SchemeKind

N = CHUNK_TRAJECTORIES + 37  # two chunks, the last one partial
# A stiff drift from x0 = 0.5: at p = 11 tes has diverged on every path
# after two steps and ses, sms and sms-half after six, while both
# exponential schemes and stes never diverge; at p = 2 every exp-es path
# diverges.  case2 has tes and stes paths diverge at p = 2; case4 has b0 > 0.
STIFF = PrototypeModel(b2=1e4, sigma=0.01, alpha=1.5, x0=0.5)
MODELS = {"case2": CASES["case2"], "case4": CASES["case4"], "stiff": STIFF}
# every scheme, one of them twice
KINDS = list(SchemeKind) + [SchemeKind.SES]
LEVELS = (0, 2, 11)  # p = 11 draws 64 tiles


@pytest.mark.parametrize("case", sorted(MODELS))
def test_lockstep_estimates_equal_one_call_per_kind(case):
    model = MODELS[case]
    fs = ["x", "inv_x"]
    for p in LEVELS:
        per_kind = {kind: estimate_many(model, kind, fs, p, N, seed=5)
                    for kind in SchemeKind}
        alone = [e for kind in KINDS for e in per_kind[kind]]
        together = estimate_many(model, KINDS, fs, p, N, seed=5)
        assert len(together) == len(KINDS) * len(fs)
        assert repr(together) == repr(alone), p
        with worker_pool(2):
            pooled = estimate_many(model, KINDS, fs, p, N, seed=5, workers=2)
        assert repr(pooled) == repr(alone), p


def test_lockstep_sweep_equals_one_table_per_kind():
    ref = SimpleNamespace(value=0.3)
    for model in (CASES["case2"], STIFF):
        tables = weak_error_sweep(model, KINDS, "x", [0, 2, 3], N, ref, seed=5)
        alone = [weak_error_sweep(model, kind, "x", [0, 2, 3], N, ref, seed=5)
                 for kind in KINDS]
        assert isinstance(tables, list)
        assert repr(tables) == repr(alone)
    one = weak_error_sweep(STIFF, [SchemeKind.TES], "x", [2], 300, ref, seed=1)
    assert one == [weak_error_sweep(STIFF, SchemeKind.TES, "x", [2], 300, ref, seed=1)]


def test_sweep_of_several_test_functions_equals_one_per_function():
    # a sequence of test functions with one reference each gives one entry
    # per function, each what sweeping it alone gives
    fs, refs = ["x", "inv_x", "x"], [SimpleNamespace(value=v) for v in (0.3, 2.0, 0.5)]
    for kind in (SchemeKind.TES, [SchemeKind.ExpES, SchemeKind.TES]):
        tables = weak_error_sweep(CASES["case2"], kind, fs, [2, 3], 300, refs, seed=4)
        alone = [weak_error_sweep(CASES["case2"], kind, f, [2, 3], 300, ref, seed=4)
                 for f, ref in zip(fs, refs)]
        assert repr(tables) == repr(alone)
    with pytest.raises(ValueError, match="references"):
        weak_error_sweep(CASES["case2"], SchemeKind.TES, fs, [2], 300, refs[:2], seed=4)


COMPARE_X_X2 = """\
case,scheme,test_fn,p2,p3,p4
case2,exp-es,x,2.068e-02,9.692e-03,3.699e-03
case2,ses,x,5.646e-02,4.445e-02,2.013e-02
case2,sms,x,6.820e-02,4.558e-02,1.955e-02
case2,tes,x,-,-,5.935e-03
case2,stes,x,-,1.002e-02,5.975e-03
case2,exp-es,x2,6.018e-03,3.265e-03,1.633e-03
case2,ses,x2,8.815e-03,1.068e-02,5.838e-03
case2,sms,x2,6.024e+00,1.074e-02,6.446e-03
case2,tes,x2,-,-,9.036e-03
case2,stes,x2,-,1.187e-03,4.808e-04
"""


def test_compare_steps_each_stream_once_for_every_test_function(
        tmp_path, monkeypatch, capsys):
    # two test functions share every ensemble: the reference (one chunk)
    # and each (level, chunk) of the sweep make one stream, 7 in all, where
    # one sweep per function made 13.  The wide CSV is the one a sweep per
    # function wrote (numerics version 2 wrote the same bytes), and the
    # detail CSV equals one run per function, row for row
    argv = ["--case", "case2", "--p-min", "2", "--p-max", "4", "--n", "8192",
            "--n0", "4096", "--p-ref", "10", "--no-cache"]
    calls = []

    def counting(*args):
        calls.append(args)
        return make_stream(*args)

    monkeypatch.setattr(montecarlo, "make_stream", counting)
    both = ["--test-fn", "x", "--test-fn", "x2"]
    out = {}
    for name, command, fns in [("compare", "compare", both),
                               ("detail", "weak-error", both),
                               ("x", "weak-error", ["--test-fn", "x"]),
                               ("x2", "weak-error", ["--test-fn", "x2"])]:
        calls.clear()
        path = tmp_path / f"{name}.csv"
        cli.main([command] + argv + fns + ["--output", str(path)])
        out[name] = path.read_text()
        if name == "compare":
            assert len(calls) == len(set(calls)) == 7
    capsys.readouterr()
    assert out["compare"] == COMPARE_X_X2
    header, *x_rows = out["x"].splitlines(keepends=True)
    _, *x2_rows = out["x2"].splitlines(keepends=True)
    assert out["detail"] == "".join([header] + x_rows + x2_rows)


def test_compare_draws_each_level_and_chunk_once(tmp_path, monkeypatch, capsys):
    argv = ["compare", "--case", "case2", "--p-min", "2", "--p-max", "4",
            "--n", str(N), "--n0", "1024", "--p-ref", "4", "--seed", "3",
            "--cache-dir", str(tmp_path), "--output", str(tmp_path / "c.csv")]
    rc = cli.main(argv)  # fills the reference cache
    calls = []

    def counting(*args):
        calls.append(args)
        return make_stream(*args)

    monkeypatch.setattr(montecarlo, "make_stream", counting)
    assert cli.main(argv) == rc
    capsys.readouterr()
    # five schemes, three levels, two chunks: one stream per (level, chunk)
    assert sorted(calls) == sorted((3, start, p, min(CHUNK_TRAJECTORIES, N - start))
                                   for p in (2, 3, 4)
                                   for start in (0, CHUNK_TRAJECTORIES))


def test_lockstep_stops_drawing_once_every_scheme_is_done(monkeypatch):
    streams = []

    def recording(*args):
        streams.append(make_stream(*args))
        return streams[-1]

    monkeypatch.setattr(montecarlo, "make_stream", recording)
    done = [SchemeKind.TES, SchemeKind.SES, SchemeKind.SMS]
    ests = estimate_many(STIFF, done, ["x"], 11, 300, seed=0)
    assert [e.n_diverged for e in ests] == [300] * 3
    assert streams[-1].counter == TILE_STEPS < 1 << 11
    # one scheme still stepping keeps the whole pass drawing
    ests = estimate_many(STIFF, done + [SchemeKind.STES], ["x"], 11, 300, seed=0)
    assert ests[-1].n_diverged == 0
    assert streams[-1].counter == 1 << 11


def test_empty_inputs_raise_before_simulating(monkeypatch):
    def no_stream(*args):
        raise AssertionError("simulated for nothing")

    monkeypatch.setattr(montecarlo, "make_stream", no_stream)
    model = CASES["case1"]
    with pytest.raises(ValueError, match="test function"):
        estimate_many(model, SchemeKind.ExpES, [], 8, 9000, 0)
    with pytest.raises(ValueError, match="scheme"):
        estimate_many(model, [], ["x"], 8, 9000, 0)
    with pytest.raises(ValueError, match="scheme"):
        weak_error_sweep(model, (), "x", [2], 9000, SimpleNamespace(value=0.0), 0)


def test_one_kind_apis_reject_scheme_sequences(monkeypatch):
    def no_stream(*args):
        raise AssertionError("simulated before rejecting the kinds")

    monkeypatch.setattr(montecarlo, "make_stream", no_stream)
    model = CASES["case1"]
    both = [SchemeKind.ExpES, SchemeKind.TES]
    with pytest.raises(TypeError, match="SchemeKind"):
        montecarlo.estimate_expectation(model, both, "x", 3, 300, 0)
    with pytest.raises(TypeError, match="SchemeKind"):
        montecarlo.moment_sweep(model, both, [1, 2], 3, 300, 0)
    with pytest.raises(TypeError, match="SchemeKind"):
        montecarlo.exp_moment_estimate(model, (SchemeKind.ExpES,), 0.01, 3, 300, 0)
    with pytest.raises(TypeError, match="SchemeKind"):
        montecarlo.estimate_expectation(model, "exp-es", "x", 3, 300, 0)
