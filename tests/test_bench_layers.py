"""The benchmark's layer tracer still finds every name it patches.

bench/layers.py wraps module attributes of the package by name, so a
refactor that renames or stops calling one of them would silently blind
`bench/run.py --trace 1`.  This installs the tracer, drives one tiny compare
through cli.main, and checks that every patched attribute existed, that each
wrapped layer was reached through its module global, that restore puts
the originals back, and what the paths counters count: one make_stream
call per chunk of trajectories simulated, and 2^p draws per chunk (the
width of each standard_normals call, which fills every row of the chunk).
"""

import importlib.util
from pathlib import Path

import expsde
from expsde.montecarlo import CHUNK_TRAJECTORIES

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attribute(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_existing_names_and_restores(tmp_path, capsys, monkeypatch):
    # record (n, p) of every ensemble beneath the tracer's own wrappers, so
    # the stream and draw counters can be checked against what was asked for
    requested = []

    def recording(owner):
        def estimate_many(model, kind, fs, p, n, *args, _orig=owner.estimate_many, **kw):
            requested.append((n, p))
            return _orig(model, kind, fs, p, n, *args, **kw)
        return estimate_many

    for owner in (expsde.montecarlo, expsde.reference):
        monkeypatch.setattr(owner, "estimate_many", recording(owner))
    layers = load_layers()
    tracer = layers.Tracer()
    layers.install(tracer, expsde)
    saved = list(tracer._saved)
    try:
        for owner, attr, old in saved:
            assert old is not None, f"{owner.__name__}.{attr}"
            assert attribute(owner, attr) is not old
        rc = expsde.cli.main(["compare", "--case", "case1", "--scheme", "exp-es",
                              "--scheme", "ses", "--p-min", "2", "--p-max", "3",
                              "--n", str(CHUNK_TRAJECTORIES + 37),
                              "--n0", "64", "--p-ref", "3",
                              "--no-cache", "--output", str(tmp_path / "c.csv")])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert rc == 0
    for owner, attr, old in saved:
        assert attribute(owner, attr) is old, f"{owner.__name__}.{attr}"
    for name in ("cli.main", "analysis.build_case_table",
                 "analysis.render_compare_csv", "reference.fine_grid_reference",
                 "montecarlo.estimate_many", "paths.make_stream",
                 "paths.standard_normals", "schemes.step_values.exp-es",
                 "schemes.step_values.ses", "models.drift_eval"):
        assert tracer.calls(name) > 0, name
    # one stream per chunk, the last one partial, and a chunk at level p
    # draws 2^p normals per row (no path of this compare diverges, so none
    # stops early)
    chunks = [(-(-n // CHUNK_TRAJECTORIES), p) for n, p in requested]
    assert any(c == 2 for c, _ in chunks)
    assert tracer.calls("paths.make_stream") == sum(c for c, _ in chunks)
    assert tracer.counts["draws"] == sum(c << p for c, p in chunks)
    assert tracer.counts["traj_steps"] == sum(n << p for n, p in requested)
