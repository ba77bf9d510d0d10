"""Experiment front-end: delta-grid runs to CSV, log-log rate fits, index-set
export and constant printing.

CSV schema (one row per grid run, reals rendered with 17 significant digits
so parsing recovers them bit-exactly):

    algorithm,nu,delta,n,K_n,K,rel_error,expected_rate,info_count,seed

Exit codes: 0 success, 1 configuration or usage error, 2 runtime cap
exceeded (in any row), 3 I/O failure, 4 a row failed for another reason
(``run`` still writes every row; failed rows carry NaN errors and are
reported on stderr), 130 interrupted (``run`` keeps the rows written).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import math
import os
import re
import sys

import numpy as np

from .driver import (
    CapExceededError,
    ConfigError,
    RunParams,
    _check_discrepancy,
    _check_integers,
    admissibility_threshold,
    run_balancing,
    run_discrepancy,
    theoretical_constants,
)
from .hypercross import export_gamma, gamma_count
from .methods import nu_method
from .problems import PROBLEM_IDS, _noise_norm, get_problem

__all__ = ["ExperimentGrid", "iter_rows", "run_grid", "rate_fit", "emit_csv", "main",
           "acceptance_grids", "exit_code"]

CSV_COLUMNS = (
    "algorithm", "nu", "delta", "n", "K_n", "K",
    "rel_error", "expected_rate", "info_count", "seed",
)

#: default smoothness mu per problem (the expected_rate column; p1 also for ``constants``)
DEFAULT_MU = {"p1": 1.2, "p2": 0.2}
#: the acceptance grid (``acceptance_grids``): tau just above the nu = 3/2
#: threshold, and delta = 2^-4 .. 2^-13
ACCEPTANCE_TAU = 1.01 + math.sqrt(13.0 / 8.0)
ACCEPTANCE_DELTAS = tuple(2.0 ** -e for e in range(4, 14))

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CAP = 2
EXIT_IO = 3
EXIT_ROW = 4
EXIT_INTERRUPT = 130

#: most pairs ``gamma-dump`` writes: level 10 (11,534,336 pairs) writes
#: 99 MB in about 1.4 s at a peak RSS of about 130 MB; level 11 would write
#: about 0.45 GB
GAMMA_DUMP_MAX_PAIRS = 1 << 24


@dataclasses.dataclass(frozen=True)
class ExperimentGrid:
    """One delta sweep: a problem, an algorithm, a method and shared run
    parameters; row i runs with noise seed seed + i. ``repeats`` > 1
    averages the relative error of each row over that many noise
    realizations (seeds spaced deterministically from the row seed); the
    structural columns (n, K_n, K, info_count) report the first realization.
    The deltas, nu and mu, and for the discrepancy driver the method's
    qualification and tau, are checked when the grid is made, so such a
    configuration error stops the run before any row runs."""

    problem_id: str
    algorithm: int
    nu: float
    deltas: tuple
    params: RunParams
    mu: float
    scaled: bool = True
    normalize: bool = True
    repeats: int = 1

    def __post_init__(self):
        if self.algorithm not in (1, 2):
            raise ConfigError("algorithm must be 1 or 2")
        _check_integers(self, "repeats")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        d = np.asarray(self.deltas, dtype=float)
        if d.size == 0 or not np.all((d > 0) & np.isfinite(d)) or np.any(np.diff(d) >= 0):
            raise ConfigError("deltas must be positive, finite and strictly decreasing")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ConfigError(f"mu must be positive and finite, got {self.mu}")
        spec = _method(self.nu)
        if self.algorithm == 1:
            _check_discrepancy(spec, self.params)


#: seed spacing between the extra realizations of one row
_REPEAT_STRIDE = 10_007


def _seeds(payload: dict) -> list:
    """The noise seeds of a row's realizations, in the order they run."""
    return [payload["seed"] + j * _REPEAT_STRIDE for j in range(payload["repeats"])]


def _row_payload(grid: ExperimentGrid, index: int) -> dict:
    """Row ``index`` of a grid: the grid's own fields, the row's delta and
    its seed."""
    return dict(vars(grid), delta=grid.deltas[index], seed=grid.params.seed + index)


def _run_row(payload: dict) -> dict:
    """Execute one grid row; failures are recorded in-row. Each realization
    waits for its noise norm's draw in ``payload["draws"]`` if started, else
    draws it itself."""
    delta, mu = payload["delta"], payload["mu"]
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
        draws = payload.get("draws", {})
        for seed in _seeds(payload):
            if seed in draws and not draws[seed].cancel():  # running or done
                concurrent.futures.wait([draws[seed]])
            params = dataclasses.replace(payload["params"], delta=delta, seed=seed)
            report = runner(problem, spec, params)
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


def iter_rows(grid: ExperimentGrid):
    """The rows of a grid, in grid order, each as it ends. The rows draw every
    CPU count-th noise norm and threads draw the rest ahead, with the bits of a
    plain row loop; closing the generator early cancels the draws queued."""
    payloads = [_row_payload(grid, i) for i in range(len(grid.deltas))]
    seeds = [seed for p in payloads for seed in _seeds(p)]
    ahead = _noise_norm.cache_info().maxsize  # so no draw is evicted unread
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    pool = concurrent.futures.ThreadPoolExecutor(max(1, cpus - 1))  # + the caller
    draws = {}
    try:
        for index, p in enumerate(payloads):
            done = index * grid.repeats
            for i, seed in enumerate(seeds[done:done + ahead], done):
                if i % cpus and seed not in draws:
                    draws[seed] = pool.submit(_noise_norm, seed, grid.params.noise_dim)
            yield _run_row(dict(p, draws=draws))
    finally:
        pool.shutdown(cancel_futures=True)


def run_grid(grid: ExperimentGrid, jobs: int = 1) -> list:
    """All rows of a grid, in grid order (``iter_rows`` run to its end).
    ``jobs`` takes only 1, the one process the rows run in."""
    if jobs != 1:
        raise ConfigError(f"rows run in one process: jobs must be 1, got {jobs}")
    return list(iter_rows(grid))


def acceptance_grids(seed: int = 0, **fields) -> list:
    """The four sweeps of the acceptance grid: both drivers (discrepancy
    first) on p1 then p2, the nu = 3/2 method, rho 1, gamma 1/2, r 2, k_sec
    20, and noise seed ``seed`` + e - 4 at delta 2^-e; ``fields`` go to
    ``RunParams``."""
    params = RunParams(delta=ACCEPTANCE_DELTAS[0], rho=1.0, gamma=0.5,
                       tau=ACCEPTANCE_TAU, r=2.0, k_sec=20, seed=seed, **fields)
    return [ExperimentGrid(problem_id=pid, algorithm=algorithm, nu=1.5,
                           deltas=ACCEPTANCE_DELTAS, params=params, mu=DEFAULT_MU[pid])
            for algorithm in (1, 2) for pid in ("p1", "p2")]


def exit_code(failed) -> int:
    """The exit code of a run with the ``failed`` rows: 2 if one hit a
    safety cap, else 4 if there are any, else 0."""
    if any(row["error"].startswith("cap:") for row in failed):
        return EXIT_CAP
    return EXIT_ROW if failed else EXIT_OK


def rate_fit(pairs) -> float:
    """Least-squares slope of log(value) against log(delta)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("rate_fit needs at least 3 pairs")
    d = np.array([p[0] for p in pairs], dtype=float)
    v = np.array([p[1] for p in pairs], dtype=float)
    if not (np.all((0 < d) & (d < np.inf)) and np.all((0 < v) & (v < np.inf))):
        raise ValueError("rate_fit needs positive finite deltas and values")
    if np.unique(d).size < 2:
        raise ValueError("rate_fit needs at least 2 distinct deltas")
    return float(np.polyfit(np.log(d), np.log(v), 1)[0])


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows, out=None) -> list:
    """Write grid rows in the fixed 10-column schema to the open text file
    ``out`` (None: standard output), the header first, then each row as it
    comes, flushed, so a cut run leaves whole lines. Returns the rows."""
    print(",".join(CSV_COLUMNS), file=out, flush=True)
    written = []
    for row in rows:
        print(",".join(_fmt(row[c]) for c in CSV_COLUMNS), file=out, flush=True)
        written.append(row)
    return written


def read_csv(path) -> list:
    """Parse an emitted CSV back into typed row dicts."""
    ints = ("algorithm", "n", "K_n", "K", "info_count", "seed")
    with open(path, newline="") as fh:
        return [{c: (int if c in ints else float)(rec[c]) for c in CSV_COLUMNS}
                for rec in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _delta_grid(d_max: float, d_min: float) -> tuple:
    if not (0 < d_min <= d_max < math.inf):
        raise ConfigError("need 0 < delta-min <= delta-max < inf")
    out = []
    d = d_max
    while d >= d_min * (1.0 - 1e-12):
        out.append(d)
        d *= 0.5
    return tuple(out)


def _positive_float(text: str) -> float:
    """argparse type of ``--nu``, ``--mu`` and ``--mu-diagnostic``: a
    positive finite real."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _method(nu: float):
    """``nu_method(nu)``, with a nu it rejects as a configuration error."""
    try:
        return nu_method(nu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _params(args, delta: float, **fields) -> RunParams:
    """``RunParams`` from the flags ``run`` and ``constants`` share. The
    default tau is the admissibility threshold of ``args.nu``'s method plus
    0.01, or the next float above the threshold where 0.01 is lost."""
    tau = args.tau
    if tau is None:
        threshold = admissibility_threshold(_method(args.nu), args.gamma)
        tau = max(threshold + 0.01, math.nextafter(threshold, math.inf))
    return RunParams(delta=delta, rho=args.rho, gamma=args.gamma, tau=tau,
                     r=args.r, **fields)


def _config_tokens(path, parser: argparse.ArgumentParser) -> list:
    """A flat key-value file -- one `key = value` (or `key: value`, split
    at the first `=` or `:`) per line, '#' comments, keys named like the
    long flags of ``parser`` (``run``'s) -- as ``--key=value`` tokens; a
    boolean flag becomes ``--key`` when true and is dropped when false."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    values = {}
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = re.split("[=:]", body, maxsplit=1)
        if len(parts) < 2:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, raw = parts
        values[key.strip().replace("_", "-")] = raw.strip()
    flags = {s[2:]: a for a in parser._actions
             for s in a.option_strings if s.startswith("--")}
    tokens = []
    for key, raw in values.items():
        action = flags.get(key)
        # --config: the command line's would win; --help: it would exit
        if action is None or action.dest in ("config", "help"):
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if action.nargs != 0:
            tokens.append(f"--{key}={raw}")
        elif raw.lower() in ("true", "yes", "on"):
            tokens.append(f"--{key}")
        elif raw.lower() not in ("false", "no", "off"):
            raise ConfigError(f"config key {key!r} takes true or false, got {raw!r}")
    return tokens


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semicross",
        description="Adaptive semiiterative regularization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of ``_params``, shared by ``run`` and ``constants``
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--nu", type=_positive_float, default=1.5)
    shared.add_argument("--gamma", type=float, default=RunParams.gamma)
    shared.add_argument("--tau", type=float, default=None,
                        help="default: admissibility threshold + 0.01, or the "
                             "next float above it where 0.01 is lost to rounding")
    shared.add_argument("--rho", type=float, default=RunParams.rho)
    shared.add_argument("--r", type=float, default=RunParams.r)

    run = sub.add_parser("run", parents=[shared], help="run one delta grid and emit CSV")
    run.set_defaults(handler=_cmd_run, parser=run)
    run.add_argument("--config", help="key-value config file (flags override)")
    run.add_argument("--problem", default="p1", choices=PROBLEM_IDS)
    run.add_argument("--algorithm", type=int, default=1, choices=(1, 2))
    run.add_argument("--delta-max", type=float, default=ACCEPTANCE_DELTAS[0])
    run.add_argument("--delta-min", type=float, default=ACCEPTANCE_DELTAS[-1])
    run.add_argument("--ksec", type=int, default=RunParams.k_sec)
    run.add_argument("--seed", type=int, default=RunParams.seed)
    run.add_argument("--repeats", type=int, default=1,
                     help="noise realizations averaged per row (rel_error)")
    run.add_argument("--mu-diagnostic", type=_positive_float, default=None,
                     help="smoothness of the expected_rate column, its only "
                          "use (default: 1.2 for p1, 0.2 for p2)")
    run.add_argument("--no-scaling", action="store_true",
                     help="disable the operator/rhs rescaling to norm 1")
    run.add_argument("--no-normalize", action="store_true",
                     help="keep the raw norm of the right-hand side")
    run.add_argument("--n-max", type=int, default=RunParams.n_max)
    run.add_argument("--k-abs-max", type=int, default=RunParams.k_abs_max)
    run.add_argument("--noise-dim", type=int, default=RunParams.noise_dim)
    run.add_argument("--out", default=None,
                     help="CSV path, created when the run starts (default stdout)")

    rates = sub.add_parser("rates", help="fit log-log slopes from a CSV")
    rates.set_defaults(handler=_cmd_rates)
    rates.add_argument("--csv", required=True)

    dump = sub.add_parser("gamma-dump", help="export a cross index set")
    dump.set_defaults(handler=_cmd_gamma_dump)
    dump.add_argument("--level", type=int, required=True)
    dump.add_argument("--out", required=True)
    dump.add_argument("--compare-rectangle", action="store_true",
                      help="also print the square-domain entry count")

    cons = sub.add_parser("constants", parents=[shared], help="print a-priori constants")
    cons.set_defaults(handler=_cmd_constants)
    cons.add_argument("--delta", type=float, default=2.0 ** -4)
    cons.add_argument("--mu", type=_positive_float, default=None,
                      help="default: 1.2, or the method's qualification 2 nu if lower")
    cons.add_argument("--level", type=int, default=6)
    return parser


def _cmd_run(args) -> int:
    mu = args.mu_diagnostic if args.mu_diagnostic is not None else DEFAULT_MU[args.problem]
    params = _params(args, args.delta_max, k_sec=args.ksec, seed=args.seed,
                     n_max=args.n_max, k_abs_max=args.k_abs_max,
                     noise_dim=args.noise_dim)
    grid = ExperimentGrid(
        problem_id=args.problem,
        algorithm=args.algorithm,
        nu=args.nu,
        deltas=_delta_grid(args.delta_max, args.delta_min),
        params=params,
        mu=mu,
        scaled=not args.no_scaling,
        normalize=not args.no_normalize,
        repeats=args.repeats,
    )
    # opened before the first row, so a path it cannot write runs no row
    with (open(args.out, "w", newline="") if args.out is not None
          else contextlib.nullcontext()) as out:
        rows = emit_csv(iter_rows(grid), out)
    failed = [row for row in rows if row["error"] is not None]
    for row in failed:
        print(f"row delta={row['delta']:g} failed: {row['error']}", file=sys.stderr)
    return exit_code(failed)


def _cmd_rates(args) -> int:
    try:
        rows = read_csv(args.csv)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.csv} is not a grid CSV: "
                          f"{type(exc).__name__}: {exc}") from None
    good = [r for r in rows if math.isfinite(r["rel_error"]) and r["K"] >= 1]
    if len(good) < 3:
        raise ConfigError(f"{args.csv}: need at least 3 successful rows to fit rates")
    try:
        err_slope = rate_fit([(r["delta"], r["rel_error"]) for r in good])
        k_slope = rate_fit([(r["delta"], float(r["K"])) for r in good])
    except ValueError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from None
    print(f"rows {len(good)}")
    print(f"error_slope {err_slope:.6f}")
    print(f"stop_index_slope {k_slope:.6f}")
    return EXIT_OK


def _cmd_gamma_dump(args) -> int:
    if args.level < 0:
        raise ConfigError("level must be >= 0")
    count = gamma_count(args.level)
    if count > GAMMA_DUMP_MAX_PAIRS:
        raise ConfigError(f"level {args.level} holds {count} pairs; gamma-dump "
                          f"writes at most {GAMMA_DUMP_MAX_PAIRS} (level 10)")
    export_gamma(args.level, args.out)
    print(f"level {args.level}: {count} pairs -> {args.out}")
    if args.compare_rectangle:
        side = 1 << (2 * args.level)
        print(f"square domain [1,{side}]^2: {side * side} pairs "
              f"({side * side / count:.1f}x more)")
    return EXIT_OK


def _cmd_constants(args) -> int:
    spec = _method(args.nu)
    params = _params(args, args.delta)
    mu = min(DEFAULT_MU["p1"], spec.qualification) if args.mu is None else args.mu
    try:
        cons = theoretical_constants(spec, params, mu, args.level)
    except ArithmeticError as exc:
        raise ConfigError(f"the constants leave the float range: {exc}") from None
    print(f"method {spec.name} qualification {spec.qualification:g} "
          f"kappa0 {spec.kappa0:g} kappa2 {spec.kappa_mu(2.0):g}")
    print(f"tau {params.tau:.17g}")
    for key in ("tau_threshold", "c1", "c2", "c_alg1", "c_alg2", "k_opt",
                "c3", "c4", "c5"):
        value = cons[key]
        shown = "n/a" if value is None else f"{value:.10g}"
        print(f"{key} {shown}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the file's values go ahead of the command line; argparse keeps
            # the last occurrence, so a flag given there wins
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, args.parser)
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
