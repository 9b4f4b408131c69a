"""Post-processing: convergence-rate fits, multi-case table assembly, and
CSV emission.

Everything here is pure arithmetic on results produced by the engine; no
randomness, so identical inputs give byte-identical CSV output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

from .montecarlo import weak_error_sweep, worker_pool
from .reference import (
    DEFAULT_N0,
    DEFAULT_P_REF,
    ReferenceValue,
    UnreliableReferenceError,
    fine_grid_reference,
)
from .schemes import SchemeKind

__all__ = [
    "RateFit",
    "InsufficientDataError",
    "fit_rate",
    "CaseCell",
    "CaseTableReport",
    "build_case_table",
    "write_detail_csv",
    "write_summary_csv",
    "render_compare_csv",
]

DEFAULT_FIT_P_MIN = 2
DEFAULT_FIT_P_MAX = 7  # beyond this the Monte Carlo error tends to dominate


class InsufficientDataError(ValueError):
    """Fewer than two usable levels in the requested fit range."""


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    points_used: tuple  # ((p, error), ...) in ascending p
    excluded: tuple     # p values inside the range that were dropped


def fit_rate(table, p_min: int = DEFAULT_FIT_P_MIN,
             p_max: int = DEFAULT_FIT_P_MAX) -> RateFit:
    """Least-squares slope of log2(error) against log2(dt).

    Rows outside [p_min, p_max] are ignored; rows inside it that are
    marked diverged or whose error is missing, nonpositive, or non-finite
    are excluded and listed in the result.  Usable rows at fewer than two
    distinct levels raise InsufficientDataError.  A slope near 1 is
    first-order weak convergence.
    """
    used = []
    dts = []
    excluded = []
    for row in sorted(table.rows, key=lambda r: r.p):
        if not (p_min <= row.p <= p_max):
            continue
        err = row.abs_error
        if row.diverged or err is None or not math.isfinite(err) or err <= 0.0:
            excluded.append(row.p)
            continue
        used.append((row.p, err))
        dts.append(row.dt)
    if len(set(dts)) < 2:
        # rows that repeat one level give no slope either
        same = " at one level" if len(used) > 1 else ""
        raise InsufficientDataError(
            f"insufficient data: {len(used)} usable rows{same} in p range "
            f"[{p_min}, {p_max}] (excluded: {excluded})"
        )
    xs = [math.log2(dt) for dt in dts]
    ys = [math.log2(err) for _, err in used]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    sstot = sum((y - ybar) ** 2 for y in ys)
    if sstot == 0.0:
        r_squared = 1.0
    else:
        ssres = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
        r_squared = min(1.0, max(0.0, 1.0 - ssres / sstot))
    return RateFit(slope=slope, intercept=intercept, r_squared=r_squared,
                   points_used=tuple(used), excluded=tuple(excluded))


# ------------------------------------------------------------ table assembly

@dataclass(frozen=True)
class CaseCell:
    case: str
    scheme: SchemeKind
    test_fn: str
    reference: Optional[ReferenceValue]
    table: object  # WeakErrorTable, or None if the reference was unreliable
    fit: Optional[RateFit]
    error: Optional[str]


@dataclass(frozen=True)
class CaseTableReport:
    cells: tuple
    p_list: tuple
    fit_range: tuple

    def cell(self, case: str, scheme, test_fn: str) -> CaseCell:
        kind = SchemeKind.from_id(scheme) if isinstance(scheme, str) else scheme
        for c in self.cells:
            if c.case == case and c.scheme is kind and c.test_fn == test_fn:
                return c
        raise KeyError(f"no cell ({case}, {kind.value}, {test_fn})")


def _fit_range(p_list):
    lo = max(DEFAULT_FIT_P_MIN, min(p_list))
    hi = min(DEFAULT_FIT_P_MAX, max(p_list))
    if lo > hi:
        return min(p_list), max(p_list)
    return lo, hi


def build_case_table(cases, schemes, test_functions, p_list, n, seed,
                     n0=DEFAULT_N0, p_ref=DEFAULT_P_REF, workers: int = 1,
                     cache_dir=None, use_cache: bool = True) -> CaseTableReport:
    """One weak-error table plus rate fit per (case, scheme, test function).

    cases is a mapping name -> model (or an iterable of such pairs).  Each
    case makes one fine_grid_reference call, one ensemble for every test
    function the cache does not hold, and at most one weak_error_sweep,
    which steps every scheme on one pass of draws per level for every test
    function with a reliable reference.  The whole table shares one
    worker_pool.  The fit range is [2, 7] clipped to p_list, or all of
    p_list when the two do not overlap.

    A cell records a statistical outcome only: an unreliable reference (no
    table, error "reference failed: ...") or too few usable rows for a fit
    (no fit, error the InsufficientDataError's message).  Any raised
    exception, a drift's or a test function's ValueError included,
    propagates.
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    case_items = list(dict(cases).items())
    kinds = [SchemeKind.from_id(s) if isinstance(s, str) else s for s in schemes]
    test_functions = list(test_functions)
    lo, hi = _fit_range(p_list)
    cells = []
    with worker_pool(workers):
        for name, model in case_items:
            refs = fine_grid_reference(model, test_functions, n0=n0, p_ref=p_ref,
                                       seed=seed, workers=workers,
                                       cache_dir=cache_dir, use_cache=use_cache)
            good = [(f, ref) for f, ref in zip(test_functions, refs)
                    if not isinstance(ref, UnreliableReferenceError)]
            swept = iter(weak_error_sweep(model, kinds, [f for f, _ in good],
                                          list(p_list), n, [ref for _, ref in good],
                                          seed, workers=workers) if good else ())
            for f, ref in zip(test_functions, refs):
                if isinstance(ref, UnreliableReferenceError):
                    cells += [CaseCell(name, kind, f, None, None, None,
                                       f"reference failed: {ref}") for kind in kinds]
                    continue
                for kind, table in zip(kinds, next(swept)):
                    fit = note = None
                    try:
                        fit = fit_rate(table, lo, hi)
                    except InsufficientDataError as exc:
                        note = str(exc)
                    cells.append(CaseCell(name, kind, f, ref, table, fit, note))
    return CaseTableReport(cells=tuple(cells), p_list=tuple(p_list),
                           fit_range=(lo, hi))


# ------------------------------------------------------------------ CSV out

DETAIL_HEADER = ["case", "scheme", "test_fn", "p", "dt", "estimate", "stderr",
                 "reference", "ref_method", "abs_error", "diverged"]
SUMMARY_HEADER = ["case", "scheme", "test_fn", "slope", "r_squared",
                  "p_min", "p_max"]


def write_detail_csv(report: CaseTableReport, out) -> None:
    """One row per (cell, p) in the analysis schema, written to the text
    stream out; floats via repr so a rerun of the same config is
    byte-identical."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(DETAIL_HEADER)
    for cell in report.cells:
        if cell.table is None:
            continue
        for row in sorted(cell.table.rows, key=lambda r: r.p):
            w.writerow([
                cell.case,
                cell.scheme.value,
                cell.test_fn,
                row.p,
                repr(row.dt),
                repr(row.estimate.mean),
                repr(row.estimate.stderr),
                repr(cell.reference.value),
                cell.reference.method.value,
                "-" if row.abs_error is None else repr(row.abs_error),
                int(row.diverged),
            ])


def write_summary_csv(report: CaseTableReport, out) -> None:
    """One slope row per cell, written to the text stream out; cells whose
    fit failed carry "-"."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(SUMMARY_HEADER)
    lo, hi = report.fit_range
    for cell in report.cells:
        if cell.fit is None:
            slope = r2 = "-"
        else:
            slope = repr(cell.fit.slope)
            r2 = repr(cell.fit.r_squared)
        w.writerow([cell.case, cell.scheme.value, cell.test_fn,
                    slope, r2, lo, hi])


def render_compare_csv(report: CaseTableReport) -> str:
    """Wide comparison table: one row per (case, scheme, test function),
    one column per p, diverged or missing cells rendered "-"."""
    lines = [",".join(["case", "scheme", "test_fn"]
                      + [f"p{p}" for p in report.p_list])]
    for cell in report.cells:
        fields = [cell.case, cell.scheme.value, cell.test_fn]
        for p in report.p_list:
            text = "-"
            if cell.table is not None:
                row = cell.table.row(p)
                if not row.diverged and row.abs_error is not None:
                    text = f"{row.abs_error:.3e}"
            fields.append(text)
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
