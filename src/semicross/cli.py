"""Experiment front-end: delta-grid runs to CSV, log-log rate fits, index-set
export and constant printing.

CSV schema (one row per grid run, reals rendered with 17 significant digits
so parsing recovers them bit-exactly):

    algorithm,nu,delta,n,K_n,K,rel_error,expected_rate,info_count,seed

Exit codes: 0 success, 1 configuration error, 2 runtime cap exceeded (in
any row), 3 I/O failure, 4 a row failed for another reason (``run`` still
writes every row; failed rows carry NaN errors and are reported on stderr).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .driver import (
    CapExceededError,
    ConfigError,
    RunParams,
    admissibility_threshold,
    run_balancing,
    run_discrepancy,
    theoretical_constants,
)
from .hypercross import export_gamma, gamma_count
from .methods import nu_method
from .problems import get_problem

__all__ = ["ExperimentGrid", "run_grid", "rate_fit", "emit_csv", "main"]

CSV_COLUMNS = (
    "algorithm", "nu", "delta", "n", "K_n", "K",
    "rel_error", "expected_rate", "info_count", "seed",
)

#: default diagnostic smoothness per problem
DEFAULT_MU = {"p1": 1.2, "p2": 0.2}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CAP = 2
EXIT_IO = 3
EXIT_ROW = 4


@dataclass(frozen=True)
class ExperimentGrid:
    """One delta sweep: a problem, an algorithm, a method and shared run
    parameters. ``seed_policy`` "per-row" derives row seeds as seed + index,
    "fixed" reuses the same seed on every row. ``repeats`` > 1 averages the
    relative error of each row over that many noise realizations (seeds
    spaced deterministically from the row seed); the structural columns
    (n, K_n, K, info_count) report the first realization."""

    problem_id: str
    algorithm: int
    nu: float
    deltas: tuple
    params: RunParams
    mu: float
    seed_policy: str = "per-row"
    scaled: bool = True
    normalize: bool = True
    repeats: int = 1

    def __post_init__(self):
        if self.algorithm not in (1, 2):
            raise ConfigError("algorithm must be 1 or 2")
        if self.seed_policy not in ("per-row", "fixed"):
            raise ConfigError("seed_policy must be 'per-row' or 'fixed'")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        d = np.asarray(self.deltas, dtype=float)
        if d.size == 0 or np.any(d <= 0) or np.any(np.diff(d) >= 0):
            raise ConfigError("deltas must be positive and strictly decreasing")


#: seed spacing between the extra realizations of one row
_REPEAT_STRIDE = 10_007


def _row_payload(grid: ExperimentGrid, index: int) -> dict:
    seed = grid.params.seed + index if grid.seed_policy == "per-row" else grid.params.seed
    return {
        "problem_id": grid.problem_id,
        "algorithm": grid.algorithm,
        "nu": grid.nu,
        "mu": grid.mu,
        "scaled": grid.scaled,
        "normalize": grid.normalize,
        "delta": grid.deltas[index],
        "seed": seed,
        "repeats": grid.repeats,
        "params": {
            "rho": grid.params.rho,
            "gamma": grid.params.gamma,
            "tau": grid.params.tau,
            "r": grid.params.r,
            "k_sec": grid.params.k_sec,
            "n_max": grid.params.n_max,
            "k_abs_max": grid.params.k_abs_max,
            "noise_dim": grid.params.noise_dim,
        },
    }


def _run_row(payload: dict) -> dict:
    """Execute one grid row; importable at module level so process pools can
    pickle it. Failures are recorded in-row."""
    delta = payload["delta"]
    mu = payload["mu"]
    row = {
        "algorithm": payload["algorithm"],
        "nu": payload["nu"],
        "delta": delta,
        "n": 0,
        "K_n": 0,
        "K": 0,
        "rel_error": math.nan,
        "expected_rate": delta ** (mu / (mu + 1.0)),
        "info_count": 0,
        "seed": payload["seed"],
        "error": None,
    }
    try:
        problem = get_problem(payload["problem_id"], scaled=payload["scaled"],
                              normalize=payload["normalize"])
        spec = nu_method(payload["nu"])
        runner = run_discrepancy if payload["algorithm"] == 1 else run_balancing
        errors = []
        first = None
        for j in range(payload.get("repeats", 1)):
            params = RunParams(delta=delta,
                               seed=payload["seed"] + j * _REPEAT_STRIDE,
                               **payload["params"])
            report = runner(problem, spec, params, mu=mu)
            errors.append(report.rel_error)
            first = first or report
    except CapExceededError as exc:
        row["error"] = f"cap:{exc.kind}: {exc}"
        return row
    except Exception as exc:  # per-row isolation: remaining rows still run
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(
        n=first.final_level,
        K_n=first.budgets[-1],
        K=first.stop_index,
        rel_error=sum(errors) / len(errors),
        info_count=first.info_count,
    )
    return row


def run_grid(grid: ExperimentGrid, jobs: int = 1) -> list:
    """All rows of a grid, in grid order regardless of completion order."""
    payloads = [_row_payload(grid, i) for i in range(len(grid.deltas))]
    if jobs > 1 and len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_row, payloads))
    return [_run_row(p) for p in payloads]


def rate_fit(pairs) -> float:
    """Least-squares slope of log(value) against log(delta)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("rate_fit needs at least 3 pairs")
    d = np.array([p[0] for p in pairs], dtype=float)
    v = np.array([p[1] for p in pairs], dtype=float)
    if np.any(d <= 0) or np.any(v <= 0):
        raise ValueError("rate_fit needs positive deltas and values")
    return float(np.polyfit(np.log(d), np.log(v), 1)[0])


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows, path=None) -> None:
    """Write grid rows in the fixed 10-column schema to ``path``, or to
    standard output when ``path`` is None."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in CSV_COLUMNS) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_csv(path) -> list:
    """Parse an emitted CSV back into typed row dicts."""
    out = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            out.append({
                "algorithm": int(rec["algorithm"]),
                "nu": float(rec["nu"]),
                "delta": float(rec["delta"]),
                "n": int(rec["n"]),
                "K_n": int(rec["K_n"]),
                "K": int(rec["K"]),
                "rel_error": float(rec["rel_error"]),
                "expected_rate": float(rec["expected_rate"]),
                "info_count": int(rec["info_count"]),
                "seed": int(rec["seed"]),
            })
    return out


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _delta_grid(d_max: float, d_min: float) -> tuple:
    if d_max <= 0 or d_min <= 0 or d_max < d_min:
        raise ConfigError("need 0 < delta-min <= delta-max")
    out = []
    d = d_max
    while d >= d_min * (1.0 - 1e-12):
        out.append(d)
        d *= 0.5
    return tuple(out)


def _default_tau(nu: float, gamma: float) -> float:
    # smallest admissible value plus the customary 0.01 head room
    return admissibility_threshold(nu_method(nu), gamma) + 0.01


def _load_config(path) -> dict:
    """Flat key-value file: one `key = value` (or `key: value`) per line,
    '#' comments; keys match the long flag names."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            for sep in ("=", ":"):
                if sep in body:
                    key, raw = body.split(sep, 1)
                    break
            else:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            values[key.strip()] = raw.strip()
    return values


def _coerce(raw: str):
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _build_parser(run_defaults: bool = True) -> argparse.ArgumentParser:
    """The command-line parser; ``run_defaults=False`` leaves every ``run``
    flag not given on the command line unset."""
    parser = argparse.ArgumentParser(
        prog="semicross",
        description="Adaptive semiiterative regularization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one delta grid and emit CSV")
    run.add_argument("--config", help="key-value config file (flags override)")
    run.add_argument("--problem", default="p1", choices=("p1", "p2"))
    run.add_argument("--algorithm", type=int, default=1, choices=(1, 2))
    run.add_argument("--nu", type=float, default=1.5)
    run.add_argument("--delta-max", type=float, default=2.0 ** -4)
    run.add_argument("--delta-min", type=float, default=2.0 ** -13)
    run.add_argument("--gamma", type=float, default=0.5)
    run.add_argument("--tau", type=float, default=None,
                     help="default: admissibility threshold + 0.01")
    run.add_argument("--rho", type=float, default=1.0)
    run.add_argument("--r", type=float, default=2.0)
    run.add_argument("--ksec", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seed-policy", default="per-row", choices=("per-row", "fixed"))
    run.add_argument("--repeats", type=int, default=1,
                     help="noise realizations averaged per row (rel_error)")
    run.add_argument("--mu-diagnostic", type=float, default=None,
                     help="default: 1.2 for p1, 0.2 for p2")
    run.add_argument("--no-scaling", action="store_true",
                     help="disable the operator/rhs rescaling to norm 1")
    run.add_argument("--no-normalize", action="store_true",
                     help="keep the raw norm of the right-hand side")
    run.add_argument("--n-max", type=int, default=12)
    run.add_argument("--k-abs-max", type=int, default=10 ** 6)
    run.add_argument("--noise-dim", type=int, default=2 ** 20)
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the rows (default 1)")
    run.add_argument("--out", default=None, help="CSV path (default stdout)")
    if not run_defaults:
        for action in run._actions:
            action.default = argparse.SUPPRESS

    rates = sub.add_parser("rates", help="fit log-log slopes from a CSV")
    rates.add_argument("--csv", required=True)

    dump = sub.add_parser("gamma-dump", help="export a cross index set")
    dump.add_argument("--level", type=int, required=True)
    dump.add_argument("--out", required=True)
    dump.add_argument("--compare-rectangle", action="store_true",
                      help="also print the square-domain entry count")

    cons = sub.add_parser("constants", help="print a-priori constants")
    cons.add_argument("--nu", type=float, default=1.5)
    cons.add_argument("--gamma", type=float, default=0.5)
    cons.add_argument("--tau", type=float, default=None)
    cons.add_argument("--delta", type=float, default=2.0 ** -4)
    cons.add_argument("--rho", type=float, default=1.0)
    cons.add_argument("--r", type=float, default=2.0)
    cons.add_argument("--mu", type=float, default=1.2)
    cons.add_argument("--level", type=int, default=6)
    return parser


def _apply_config(args: argparse.Namespace, argv) -> argparse.Namespace:
    if args.config is None:
        return args
    file_values = _load_config(args.config)
    # the command line wins over the file, even where a flag repeats its
    # default: a parse without defaults tells which flags were given
    given = vars(_build_parser(run_defaults=False).parse_args(argv))
    for key, raw in file_values.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        if attr not in given:
            setattr(args, attr, _coerce(raw))
    return args


def _cmd_run(args, argv) -> int:
    args = _apply_config(args, argv)
    mu = args.mu_diagnostic if args.mu_diagnostic is not None else DEFAULT_MU[args.problem]
    tau = args.tau if args.tau is not None else _default_tau(args.nu, args.gamma)
    params = RunParams(
        delta=args.delta_max, rho=args.rho, gamma=args.gamma, tau=tau,
        r=args.r, k_sec=args.ksec, seed=args.seed, n_max=args.n_max,
        k_abs_max=args.k_abs_max, noise_dim=args.noise_dim,
    )
    if args.algorithm == 1:
        thr = admissibility_threshold(nu_method(args.nu), args.gamma)
        if tau <= thr:
            raise ConfigError(
                f"tau={tau:g} at or below admissibility threshold {thr:.6f}"
            )
    grid = ExperimentGrid(
        problem_id=args.problem,
        algorithm=args.algorithm,
        nu=args.nu,
        deltas=_delta_grid(args.delta_max, args.delta_min),
        params=params,
        mu=mu,
        seed_policy=args.seed_policy,
        scaled=not args.no_scaling,
        normalize=not args.no_normalize,
        repeats=args.repeats,
    )
    rows = run_grid(grid, jobs=args.jobs)
    for row in rows:
        if row["error"] is not None:
            print(f"row delta={row['delta']:g} failed: {row['error']}",
                  file=sys.stderr)
    emit_csv(rows, args.out)
    errors = [row["error"] for row in rows if row["error"] is not None]
    if any(error.startswith("cap:") for error in errors):
        return EXIT_CAP
    return EXIT_ROW if errors else EXIT_OK


def _cmd_rates(args) -> int:
    rows = read_csv(args.csv)
    good = [r for r in rows if math.isfinite(r["rel_error"]) and r["K"] >= 1]
    if len(good) < 3:
        raise ConfigError("need at least 3 successful rows to fit rates")
    err_slope = rate_fit([(r["delta"], r["rel_error"]) for r in good])
    k_slope = rate_fit([(r["delta"], float(r["K"])) for r in good])
    print(f"rows {len(good)}")
    print(f"error_slope {err_slope:.6f}")
    print(f"stop_index_slope {k_slope:.6f}")
    return EXIT_OK


def _cmd_gamma_dump(args) -> int:
    export_gamma(args.level, args.out)
    count = gamma_count(args.level)
    print(f"level {args.level}: {count} pairs -> {args.out}")
    if args.compare_rectangle:
        side = 1 << (2 * args.level)
        print(f"square domain [1,{side}]^2: {side * side} pairs "
              f"({side * side / count:.1f}x more)")
    return EXIT_OK


def _cmd_constants(args) -> int:
    spec = nu_method(args.nu)
    tau = args.tau if args.tau is not None else _default_tau(args.nu, args.gamma)
    params = RunParams(delta=args.delta, rho=args.rho, gamma=args.gamma,
                       tau=tau, r=args.r)
    cons = theoretical_constants(spec, params, args.mu, args.level)
    print(f"method {spec.name} qualification {spec.qualification:g} "
          f"kappa0 {spec.kappa0:g} kappa2 {spec.kappa2:g}")
    print(f"tau {tau:.17g}")
    for key in ("tau_threshold", "c1", "c2", "c_alg1", "c_alg2", "k_opt",
                "c3", "c4", "c5"):
        value = cons[key]
        shown = "n/a" if value is None else f"{value:.10g}"
        print(f"{key} {shown}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": lambda a: _cmd_run(a, argv),
        "rates": _cmd_rates,
        "gamma-dump": _cmd_gamma_dump,
        "constants": _cmd_constants,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
