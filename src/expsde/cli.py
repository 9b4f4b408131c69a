"""Command-line front end: case catalog, config files, and the
check/reference/weak-error/compare/rate/simulate commands.

Config files are flat ``key = value`` text with optional ``[profile]``
sections overlaying the base keys; a key repeated inside one section
accumulates into a list (used for scheme and test_fn).  ``RunConfig`` is
the one table of options: each field is a config key and a flag of the
same name with dashes as underscores, with its range check.  Flags beat
the config file, which beats built-in defaults.

Exit codes: 0 success, 1 divergence-dominated result, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .analysis import (
    build_case_table,
    render_compare_csv,
    write_detail_csv,
    write_summary_csv,
)
from .models import PrototypeModel, check_hypotheses
from .montecarlo import TEST_FUNCTIONS, simulate_paths, worker_pool
from .paths import make_stream
from .reference import (
    DEFAULT_N0,
    DEFAULT_P_REF,
    DivergentIntegralError,
    UnreliableReferenceError,
    analytic_first_moment,
    analytic_second_moment,
    fine_grid_reference,
)
from .schemes import SchemeKind

__all__ = ["CASES", "RunConfig", "ConfigError", "main"]

# benchmark catalog: (b0, b1, b2, sigma, alpha), unit start and horizon
CASES = {
    "case1": PrototypeModel(b0=0.0, b1=0.0, b2=2.0, sigma=0.1, alpha=1.5),
    "case2": PrototypeModel(b0=0.0, b1=0.0, b2=3.0, sigma=1.0, alpha=1.25),
    "case3": PrototypeModel(b0=0.0, b1=0.0, b2=1.0, sigma=1.0, alpha=1.5),
    "case4": PrototypeModel(b0=1.0, b1=1.0, b2=0.4, sigma=0.1, alpha=3.0),
    "case5": PrototypeModel(b0=0.0, b1=0.0, b2=10.0, sigma=0.5, alpha=1.125),
    "case6": PrototypeModel(b0=0.0, b1=0.0, b2=0.01, sigma=0.1, alpha=1.25),
    "case7": PrototypeModel(b0=0.0, b1=0.0, b2=0.4, sigma=0.1, alpha=3.0),
}

ALL_SCHEME_IDS = tuple(k.value for k in SchemeKind)
COMPARE_SCHEMES = ("exp-es", "ses", "sms", "tes", "stes")
MODEL_KEYS = ("b0", "b1", "b2", "sigma", "alpha", "x0", "horizon")
# finest level any command accepts; a path at level p takes 2^p steps
MAX_LEVEL = 30


class ConfigError(Exception):
    pass


def _cast_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _cast_str_tuple(value) -> tuple:
    if isinstance(value, list):
        return tuple(value)
    return (str(value),)


def _opt(default, cast, doc, low=None, high=None):
    """One run option: its default, the caster for its config-file text,
    its flag help and an optional inclusive range [low, high]."""
    return field(default=default,
                 metadata={"cast": cast, "help": doc, "low": low, "high": high})


@dataclass
class RunConfig:
    """Every run option, declared once.  Each field is a config key of the
    same name and a ``--flag`` with underscores as dashes; the caster picks
    the flag's form (``_cast_bool`` a bare switch, ``_cast_str_tuple`` a
    repeatable flag).  The model fields left ``None`` take the
    ``PrototypeModel`` defaults, so a given one is never silently dropped."""

    case: Optional[str] = _opt(None, str, "catalog case id (case1..case7)")
    b0: Optional[float] = _opt(None, float, "drift constant term (default 0)")
    b1: Optional[float] = _opt(None, float, "drift linear coefficient (default 0)")
    b2: Optional[float] = _opt(None, float, "drift superlinear coefficient")
    sigma: Optional[float] = _opt(None, float, "diffusion coefficient")
    alpha: Optional[float] = _opt(None, float, "diffusion power (> 1)")
    x0: Optional[float] = _opt(None, float, "initial value (default 1)")
    horizon: Optional[float] = _opt(None, float, "time horizon (default 1)")
    scheme: tuple = _opt((), _cast_str_tuple,
                         f"scheme id, repeatable; one of {', '.join(ALL_SCHEME_IDS)}")
    test_fn: tuple = _opt(("x",), _cast_str_tuple,
                          "test function id, repeatable: x, x2, inv_x, exp_neg_x2")
    p_min: int = _opt(2, int, "coarsest level (default 2)", low=0)
    p_max: int = _opt(7, int, "finest level (default 7)", high=MAX_LEVEL)
    p: int = _opt(8, int, "single level for simulate (default 8)", low=0, high=MAX_LEVEL)
    n: int = _opt(100_000, int, "trajectories per level (default 100000)", low=2)
    n0: int = _opt(DEFAULT_N0, int, f"reference trajectories (default {DEFAULT_N0})", low=1)
    p_ref: int = _opt(DEFAULT_P_REF, int, f"reference level (default {DEFAULT_P_REF})",
                      low=1, high=MAX_LEVEL)
    seed: int = _opt(0, int, "master seed (default 0)", low=0)
    workers: int = _opt(1, int, "worker processes (default 1)", low=1)
    output: Optional[str] = _opt(None, str, "write result here instead of stdout")
    ref_method: str = _opt("fine-grid", str,
                           "reference command only: fine-grid or analytic (default fine-grid)")
    cache_dir: Optional[str] = _opt(None, str,
                                    "reference cache directory (default $EXPSDE_CACHE_DIR)")
    no_cache: bool = _opt(False, _cast_bool, "disable the reference cache")
    trajectory: int = _opt(0, int, "trajectory index for simulate (default 0)", low=0)


def parse_config_text(text: str):
    """Parse flat key = value lines into {profile name or None: settings}."""
    profiles = {None: {}}
    current = profiles[None]
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"config line {lineno}: empty profile name")
            current = profiles.setdefault(name, {})
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in current:
            prev = current[key]
            if isinstance(prev, list):
                prev.append(value)
            else:
                current[key] = [prev, value]
        else:
            current[key] = value
    return profiles


def resolve_config(args: argparse.Namespace) -> RunConfig:
    casters = {f.name: f.metadata["cast"] for f in fields(RunConfig)}
    settings = {}
    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        profiles = parse_config_text(text)
        merged = dict(profiles[None])
        if getattr(args, "profile", None):
            if args.profile not in profiles:
                known = sorted(k for k in profiles if k)
                raise ConfigError(f"unknown profile {args.profile!r}; defined: {known}")
            merged.update(profiles[args.profile])
        for key, value in merged.items():
            if key not in casters:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(value, list) and casters[key] is not _cast_str_tuple:
                raise ConfigError(f"config key {key!r} is given more than once")
            try:
                settings[key] = casters[key](value)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}")
    elif getattr(args, "profile", None):
        raise ConfigError("--profile needs --config")
    for key, cast in casters.items():
        value = getattr(args, key, None)
        if value is None:
            continue
        # argparse has cast scalar flags already; repeated flags arrive as lists
        settings[key] = cast(value) if isinstance(value, list) else value
    cfg = RunConfig(**settings)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    for opt in fields(RunConfig):
        value, low, high = getattr(cfg, opt.name), opt.metadata["low"], opt.metadata["high"]
        if low is not None and value < low:
            raise ConfigError(f"{opt.name} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ConfigError(f"{opt.name} must be <= {high}, got {value}")
    if cfg.p_min > cfg.p_max:
        raise ConfigError(f"empty p range: p_min={cfg.p_min} > p_max={cfg.p_max}")
    for s in cfg.scheme:
        try:
            SchemeKind.from_id(s)
        except ValueError as exc:
            raise ConfigError(str(exc))
    for f in cfg.test_fn:
        if f not in TEST_FUNCTIONS:
            raise ConfigError(
                f"unknown test function {f!r}; built-ins: {sorted(TEST_FUNCTIONS)}"
            )
    if cfg.ref_method not in ("fine-grid", "analytic"):
        raise ConfigError(f"ref_method must be fine-grid or analytic, got {cfg.ref_method!r}")
    if cfg.output and not Path(cfg.output).parent.is_dir():
        raise ConfigError(f"output directory {str(Path(cfg.output).parent)!r} does not exist")


def resolve_model(cfg: RunConfig):
    inline = {k: getattr(cfg, k) for k in MODEL_KEYS if getattr(cfg, k) is not None}
    if cfg.case and inline:
        raise ConfigError("give either a catalog case or inline parameters, not both")
    if cfg.case:
        if cfg.case not in CASES:
            raise ConfigError(f"unknown case {cfg.case!r}; known: {', '.join(sorted(CASES))}")
        return cfg.case, CASES[cfg.case]
    if not inline:
        raise ConfigError("no model given: use --case or inline --b2/--sigma/--alpha")
    missing = [k for k in ("b2", "sigma", "alpha") if k not in inline]
    if missing:
        raise ConfigError(f"inline model is missing {', '.join(missing)}")
    try:
        model = PrototypeModel(**inline)
    except ValueError as exc:
        raise ConfigError(f"bad model parameters: {exc}")
    return "inline", model


@contextlib.contextmanager
def _destination(cfg: RunConfig):
    """The text stream a command writes its result to: stdout, or the
    --output file, opened on entry; failing to open or write it is a
    ConfigError."""
    if not cfg.output:
        yield sys.stdout
        return
    try:
        with open(cfg.output, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.output}: {exc.strerror or exc}")


def _divergence_dominated(report) -> bool:
    saw_cell = False
    for cell in report.cells:
        saw_cell = True
        if cell.table is None:
            continue
        for row in cell.table.rows:
            if not row.diverged:
                return False
    return saw_cell


def _build_report(cfg: RunConfig, default_schemes):
    name, model = resolve_model(cfg)
    schemes = cfg.scheme or default_schemes
    p_list = list(range(cfg.p_min, cfg.p_max + 1))
    report = build_case_table({name: model}, list(schemes), list(cfg.test_fn),
                              p_list, cfg.n, cfg.seed, n0=cfg.n0,
                              p_ref=cfg.p_ref, workers=cfg.workers,
                              cache_dir=cfg.cache_dir,
                              use_cache=not cfg.no_cache)
    for cell in report.cells:
        if cell.error:
            print(f"warning: {cell.case}/{cell.scheme.value}/{cell.test_fn}: "
                  f"{cell.error}", file=sys.stderr)
    return report


# ---------------------------------------------------------------- commands

def cmd_check(cfg: RunConfig) -> int:
    name, model = resolve_model(cfg)
    report = check_hypotheses(model)
    print(f"{name}: b0={model.b0:g} b1={model.b1:g} b2={model.b2:g} "
          f"sigma={model.sigma:g} alpha={model.alpha:g}")
    print(f"H1: {'satisfied' if report.h1_ok else 'violated'}")
    print(f"H4: {'satisfied' if report.h4_ok else 'violated'}")
    if math.isnan(report.kappa):
        print("H5: violated, κ undefined")
    else:
        verdict = "satisfied" if report.h5_ok else "violated"
        print(f"H5: {verdict}, κ≈{report.kappa:.3g}")
    print(f"max provable moment order: {report.max_moment_order:g}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def cmd_reference(cfg: RunConfig) -> int:
    name, model = resolve_model(cfg)
    lines = []
    with worker_pool(cfg.workers):
        for f in cfg.test_fn:
            mc = fine_grid_reference(model, f, n0=cfg.n0, p_ref=cfg.p_ref,
                                     seed=cfg.seed, workers=cfg.workers,
                                     cache_dir=cfg.cache_dir,
                                     use_cache=not cfg.no_cache)
            ref = mc
            if cfg.ref_method == "analytic":
                ref = _analytic_or_fallback(model, f, mc)
            lines.append(f"{name} {f}: {ref.value!r} +- {ref.uncertainty:.3g} "
                         f"[{ref.method.value}]")
    with _destination(cfg) as out:
        out.write("\n".join(lines) + "\n")
    return 0


def _analytic_or_fallback(model, f, mc):
    ops = {"x": analytic_first_moment, "x2": analytic_second_moment}
    if f not in ops:
        print(f"note: no closed form for test function {f!r}; "
              "using the fine-grid value", file=sys.stderr)
        return mc
    try:
        return ops[f](model, mc_check=mc)
    except DivergentIntegralError as exc:
        print(f"note: {exc}; falling back to the fine-grid value", file=sys.stderr)
        return mc
    except ValueError as exc:
        print(f"note: closed form not applicable ({exc}); "
              "using the fine-grid value", file=sys.stderr)
        return mc


def cmd_weak_error(cfg: RunConfig) -> int:
    report = _build_report(cfg, default_schemes=("exp-es",))
    with _destination(cfg) as out:
        write_detail_csv(report, out)
    return 1 if _divergence_dominated(report) else 0


def cmd_compare(cfg: RunConfig) -> int:
    report = _build_report(cfg, default_schemes=COMPARE_SCHEMES)
    with _destination(cfg) as out:
        out.write(render_compare_csv(report))
    return 1 if _divergence_dominated(report) else 0


def cmd_rate(cfg: RunConfig) -> int:
    report = _build_report(cfg, default_schemes=("exp-es",))
    with _destination(cfg) as out:
        write_summary_csv(report, out)
    return 1 if _divergence_dominated(report) else 0


def cmd_simulate(cfg: RunConfig) -> int:
    name, model = resolve_model(cfg)
    schemes = cfg.scheme or ("exp-es",)
    if len(schemes) != 1:
        raise ConfigError("simulate takes exactly one scheme")
    kind = SchemeKind.from_id(schemes[0])
    dt = model.horizon / (1 << cfg.p)
    diverged_at = None
    paths = simulate_paths(model, kind, cfg.p,
                           make_stream(cfg.seed, cfg.trajectory, cfg.p))
    # one row at a time: a path at level p has 2^p + 1 of them
    with _destination(cfg) as out:
        out.write("t,value\n")
        for k, (x, div) in enumerate(paths):
            if div[0]:
                diverged_at = k * dt
                break
            out.write(f"{k * dt!r},{float(x[0])!r}\n")
    if diverged_at is not None:
        print(f"warning: {name}/{kind.value} path diverged at t={diverged_at:g}",
              file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------------ parser

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--profile", help="profile section of the config file")
    for f in fields(RunConfig):
        cast = f.metadata["cast"]
        if cast is _cast_bool:
            form = {"action": "store_const", "const": True}
        elif cast is _cast_str_tuple:
            form = {"action": "append"}
        else:
            form = {"type": cast}
        sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                         help=f.metadata["help"], **form)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsde",
        description=(
            "Weak-error toolkit for one-dimensional SDEs with superlinear "
            "polynomial coefficients: positivity-preserving exponential "
            "stepping, tamed and symmetrized comparison schemes, fine-grid "
            "references, and order-one rate checks."
        ),
    )
    subs = parser.add_subparsers(dest="command")
    specs = [
        ("check", cmd_check, "evaluate the parameter hypotheses for a model"),
        ("reference", cmd_reference, "compute (and cache) reference expectations"),
        ("weak-error", cmd_weak_error, "per-level weak-error table as CSV"),
        ("compare", cmd_compare, "multi-scheme wide comparison table"),
        ("rate", cmd_rate, "fitted convergence-rate summary as CSV"),
        ("simulate", cmd_simulate, "dump one trajectory as t,value CSV"),
    ]
    for name, func, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(func=func)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser() once per process: building it costs milliseconds,
    and parsing leaves it as it was (repeatable flags append to a fresh
    list in the namespace of each parse)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = resolve_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnreliableReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
