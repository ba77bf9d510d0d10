import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import importlib.util
import io
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import semicross
from semicross import cli, driver, problems
from semicross.cli import (
    CSV_COLUMNS,
    ExperimentGrid,
    emit_csv,
    iter_rows,
    main,
    rate_fit,
    read_csv,
    run_grid,
    _delta_grid,
    _row_payload,
    _run_row,
)
from semicross.driver import ConfigError, RunParams, admissibility_threshold, run_balancing
from semicross.methods import nu_method

from helpers import EDGE_RUNS, clear_draws

TAU_REF = 1.01 + math.sqrt(13.0 / 8.0)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a
    loop that never ends fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def small_grid(problem="p1", algorithm=1, deltas=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7)):
    params = RunParams(delta=deltas[0], tau=TAU_REF, noise_dim=2 ** 12)
    return ExperimentGrid(
        problem_id=problem, algorithm=algorithm, nu=1.5, deltas=deltas,
        params=params, mu=1.2,
    )


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_rate_fit_exact_power_law():
    deltas = [2.0 ** -e for e in range(4, 12)]
    pairs = [(d, d ** 0.5) for d in deltas]
    assert rate_fit(pairs) == pytest.approx(0.5, abs=1e-12)


def test_rate_fit_constant():
    pairs = [(d, 3.7) for d in (0.1, 0.01, 0.001)]
    assert rate_fit(pairs) == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_rescale_invariance():
    deltas = [2.0 ** -e for e in range(4, 10)]
    vals = [d ** 0.55 * (1 + 0.1 * math.sin(e)) for e, d in enumerate(deltas)]
    s1 = rate_fit(list(zip(deltas, vals)))
    s2 = rate_fit([(d, 17.0 * v) for d, v in zip(deltas, vals)])
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (0.05, -0.5), (0.02, 0.1)])
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (math.inf, 0.5), (0.02, 0.1)])
    with pytest.raises(ValueError, match="2 distinct deltas"):
        rate_fit([(0.0625, 0.1), (0.0625, 0.2), (0.0625, 0.3)])


def test_table_shaped_data_recovers_expected_slope():
    errors = [0.49975111, 0.29238913, 0.21650878, 0.17715080, 0.10086226,
              0.07100275, 0.04971398, 0.03362040, 0.02322422, 0.01549616]
    deltas = [2.0 ** -e for e in range(4, 14)]
    slope = rate_fit(list(zip(deltas, errors)))
    assert 0.5 < slope < 0.6


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_empty_report_list_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    with open(path, "w", newline="") as fh:
        assert emit_csv([], fh) == []
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_round_trip_is_bit_exact(tmp_path):
    rows = run_grid(small_grid())
    path = tmp_path / "rows.csv"
    with open(path, "w", newline="") as fh:
        assert emit_csv(iter(rows), fh) == rows
    text = path.read_text().splitlines()
    assert all(len(line.split(",")) == 10 for line in text)
    back = read_csv(path)
    for row, rec in zip(rows, back):
        for col in CSV_COLUMNS:
            assert rec[col] == row[col]


def test_delta_grid_defaults():
    grid = _delta_grid(2.0 ** -4, 2.0 ** -13)
    assert len(grid) == 10
    assert grid[0] == 2.0 ** -4 and grid[-1] == 2.0 ** -13
    assert all(b == a / 2 for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("d_max, d_min", [
    (math.inf, 0.01), (math.inf, math.inf), (math.nan, 0.01), (0.1, math.nan),
])
def test_delta_grid_rejects_non_finite_bounds(d_max, d_min):
    # halving inf never reaches delta-min: the list would grow without bound
    with _deadline(0.2), pytest.raises(ConfigError):
        _delta_grid(d_max, d_min)


def test_grid_validation():
    with pytest.raises(ConfigError):
        ExperimentGrid(problem_id="p1", algorithm=3, nu=1.5,
                       deltas=(0.1,), params=RunParams(delta=0.1), mu=1.2)
    with pytest.raises(ConfigError):
        ExperimentGrid(problem_id="p1", algorithm=1, nu=1.5,
                       deltas=(0.1, 0.2), params=RunParams(delta=0.1), mu=1.2)


@pytest.mark.parametrize("repeats", [2.5, "2", None])
def test_grid_repeats_must_be_an_integer(repeats):
    with pytest.raises(ConfigError, match="repeats must be an integer"):
        ExperimentGrid(problem_id="p1", algorithm=2, nu=1.5, deltas=(0.1,),
                       params=RunParams(delta=0.1), mu=1.2, repeats=repeats)


def test_grid_takes_numpy_integer_repeats():
    grid = dataclasses.replace(small_grid(algorithm=2, deltas=(2.0 ** -5,)),
                               repeats=np.int64(2))
    assert run_grid(grid)[0]["error"] is None


def test_grid_rows_and_determinism():
    grid = small_grid()
    rows_a = run_grid(grid, jobs=1)
    rows_b = run_grid(grid, jobs=1)
    assert rows_a == rows_b
    assert len(rows_a) == 3
    assert [r["seed"] for r in rows_a] == [0, 1, 2]  # row i: seed + i
    assert all(r["error"] is None for r in rows_a)


def test_rows_run_in_one_process_only():
    for jobs in (2, 0):
        with pytest.raises(ConfigError, match="jobs must be 1"):
            run_grid(small_grid(), jobs=jobs)


def test_repeats_average_relative_error():
    base = small_grid(deltas=(2.0 ** -5, 2.0 ** -6))
    multi = dataclasses.replace(base, repeats=3)
    rows_one = run_grid(base)
    rows_three = run_grid(multi)
    for one, three in zip(rows_one, rows_three):
        # structural columns come from the first realization
        assert (one["n"], one["K_n"], one["K"]) == (three["n"], three["K_n"], three["K"])
        assert one["rel_error"] != three["rel_error"]
        assert abs(one["rel_error"] - three["rel_error"]) < 0.3 * one["rel_error"]
    # averaging is itself deterministic
    assert run_grid(multi) == rows_three


def test_repeats_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(small_grid(), repeats=0)


def test_row_failures_recorded_in_row():
    params = RunParams(delta=2.0 ** -4, tau=TAU_REF, noise_dim=2 ** 12, n_max=5)
    grid = ExperimentGrid(
        problem_id="p2", algorithm=1, nu=1.5,
        deltas=(2.0 ** -4, 2.0 ** -9), params=params, mu=0.2,
    )
    rows = run_grid(grid)
    assert rows[0]["error"] is None
    assert rows[1]["error"].startswith("cap:level")
    assert math.isnan(rows[1]["rel_error"])


# ---------------------------------------------------------------------------
# noise norms drawn ahead of the rows
# ---------------------------------------------------------------------------

def _counted_streams(monkeypatch, fail_seed=None):
    """Record each generator ``np.random.default_rng`` makes, with the number
    of standard normals drawn from it, the thread that made it and the
    threads then alive; ``fail_seed`` makes that seed's generator raise."""
    make, streams = np.random.default_rng, []

    class Counted:
        def __init__(self, seed):
            if seed == fail_seed:
                raise ArithmeticError(f"draw of seed {seed} failed")
            self.rng, self.seed, self.drawn = make(seed), seed, 0
            self.bit_generator = self.rng.bit_generator
            self.thread, self.alive = threading.get_ident(), threading.active_count()
            streams.append(self)

        def standard_normal(self, size):
            self.drawn += size
            return self.rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    return streams


def test_serial_rows_equal_a_plain_row_loop():
    grid = dataclasses.replace(small_grid(problem="p2", algorithm=2), repeats=3)
    clear_draws()
    plain = [_run_row(_row_payload(grid, i)) for i in range(len(grid.deltas))]
    clear_draws()
    rows = run_grid(grid)
    assert rows == plain
    assert all(r["error"] is None for r in rows)
    assert ([r["rel_error"].hex() for r in rows]
            == [r["rel_error"].hex() for r in plain])


def _paper_sweeps():
    """alg1 p1, alg1 p2, alg2 p1, alg2 p2 over delta 2^-4..2^-13, as
    scripts/run_tables.py runs them."""
    params = RunParams(delta=2.0 ** -4, tau=TAU_REF)
    return [ExperimentGrid(problem_id=pid, algorithm=algorithm, nu=1.5,
                           deltas=tuple(2.0 ** -e for e in range(4, 14)),
                           params=params, mu=cli.DEFAULT_MU[pid])
            for algorithm in (1, 2) for pid in ("p1", "p2")]


def _counted_window_draws(monkeypatch) -> list:
    """The dims of the windows ``NoisyData`` draws from now on."""
    draws, draw = [], problems.NoisyData._draw

    def counted(self, dim, rows):
        draws.append(dim)
        return draw(self, dim, rows)

    monkeypatch.setattr(problems.NoisyData, "_draw", counted)
    return draws


def test_the_four_paper_sweeps_draw_each_window_once(monkeypatch):
    # the balancing sweeps read the windows the discrepancy sweeps drew, so
    # 54 of the 91 level windows are drawn, and every row is that of a run
    # that draws each window afresh
    grids, draws = _paper_sweeps(), _counted_window_draws(monkeypatch)
    problems._noisy_data.cache_clear()
    kept = [run_grid(grid) for grid in grids]
    assert len(draws) == 54
    draws.clear()
    # a run's data made anew for each run keeps no window across runs
    monkeypatch.setattr(driver, "_noisy_data", problems._noisy_data.__wrapped__)
    fresh = [run_grid(grid) for grid in grids]
    assert len(draws) == 91
    assert fresh == kept
    assert all(row["error"] is None for rows in kept for row in rows)


def test_a_second_pass_over_the_paper_sweeps_draws_nothing(monkeypatch):
    grids, draws = _paper_sweeps(), _counted_window_draws(monkeypatch)
    clear_draws()
    first = [run_grid(grid) for grid in grids]
    draws.clear()
    norms = problems._noise_norm.cache_info().misses
    assert [run_grid(grid) for grid in grids] == first
    assert problems._noise_norm.cache_info().misses == norms
    assert draws == []


def test_each_noise_norm_is_drawn_once_per_process(monkeypatch):
    dim = 2 ** 16  # past every level window the rows read
    grid = dataclasses.replace(small_grid(), repeats=2, params=RunParams(
        delta=2.0 ** -5, tau=TAU_REF, noise_dim=dim))
    clear_draws()
    streams = _counted_streams(monkeypatch)
    run_grid(grid)
    run_grid(grid)
    full = Counter(s.seed for s in streams if s.drawn == dim)
    assert full == {seed: 1 for seed in (0, 1, 2, 10_007, 10_008, 10_009)}


def test_the_calling_thread_draws_every_cpu_count_th_norm(monkeypatch):
    cpus, dim = len(os.sched_getaffinity(0)), 2 ** 16
    grid = dataclasses.replace(small_grid(), repeats=2, params=RunParams(
        delta=2.0 ** -5, tau=TAU_REF, noise_dim=dim))
    clear_draws()
    before = threading.active_count()
    streams = _counted_streams(monkeypatch)
    run_grid(grid)
    full = [s for s in streams if s.drawn == dim]
    in_order = [r + j * 10_007 for r in range(3) for j in range(2)]
    assert {s.seed for s in full if s.thread == threading.get_ident()} >= set(
        in_order[::cpus])
    assert len({s.thread for s in full}) <= cpus
    assert max(s.alive for s in full) <= before + cpus - 1


def test_a_row_draws_itself_a_norm_whose_draw_has_not_started():
    grid = small_grid(deltas=(2.0 ** -5,))
    queued = concurrent.futures.Future()  # no worker ever picks it up
    late = threading.Timer(5.0, queued.set_result, (None,))  # ends a wait on it
    late.start()
    try:
        row = _run_row(dict(_row_payload(grid, 0), draws={grid.params.seed: queued}))
    finally:
        late.cancel()
    assert queued.cancelled() and row["error"] is None


def test_a_failed_draw_fails_only_its_own_row(monkeypatch):
    clear_draws()
    _counted_streams(monkeypatch, fail_seed=1)
    rows = run_grid(small_grid())
    assert [r["error"] for r in rows] == [
        None, "ArithmeticError: draw of seed 1 failed", None]


def test_no_draw_thread_outlives_run_grid(monkeypatch):
    before = threading.active_count()
    run_grid(small_grid())
    assert threading.active_count() == before

    # a row interrupted while draws are still queued: enough realizations
    # that most of them have not started when the first one runs
    workers = len(os.sched_getaffinity(0))
    grid = dataclasses.replace(
        small_grid(deltas=(2.0 ** -5,)), repeats=8 * workers + 8,
        params=RunParams(delta=2.0 ** -5, tau=TAU_REF, noise_dim=2 ** 18))
    clear_draws()
    payloads = []

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    def kept_row(payload):
        payloads.append(payload)
        return _run_row(payload)

    monkeypatch.setattr(cli, "run_discrepancy", interrupted)
    monkeypatch.setattr(cli, "_run_row", kept_row)
    with pytest.raises(KeyboardInterrupt):
        run_grid(grid)
    assert threading.active_count() == before
    draws = payloads[0]["draws"].values()
    assert all(f.done() for f in draws)
    assert sum(f.cancelled() for f in draws) > len(draws) // 2 or workers == 1


def test_closing_the_row_stream_early_cancels_its_queued_draws(monkeypatch):
    workers = len(os.sched_getaffinity(0)) - 1
    grid = dataclasses.replace(
        small_grid(deltas=(2.0 ** -5, 2.0 ** -6)), repeats=4 * workers + 4)
    row_two = {grid.params.seed + 1 + j * 10_007 for j in range(grid.repeats)}
    payloads, run_row = [], cli._run_row

    def kept_row(payload):
        payloads.append(payload)
        return run_row(payload)

    def drawn_ahead(seed, dim):  # a draw of row 2 holds its thread a while
        time.sleep(0.2 if seed in row_two else 0.0)

    drawn_ahead.cache_info = problems._noise_norm.cache_info  # sizes the look-ahead
    monkeypatch.setattr(cli, "_run_row", kept_row)
    monkeypatch.setattr(cli, "_noise_norm", drawn_ahead)
    clear_draws()
    before = threading.active_count()
    it = iter_rows(grid)
    assert next(it)["error"] is None
    it.close()
    assert threading.active_count() == before
    assert len(payloads) == 1  # row 2 never ran
    ahead = [f for seed, f in payloads[0]["draws"].items() if seed in row_two]
    assert all(f.done() for f in ahead)
    assert sum(f.cancelled() for f in ahead) >= len(ahead) - workers
    assert ahead or workers == 0


def test_run_tables_rejects_bad_arguments_before_making_anything(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    outdir = tmp_path / "out"

    def run_tables(*flag):
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "run_tables.py"),
             "--outdir", str(outdir), *flag],
            env=env, capture_output=True, text=True, timeout=60)

    done = run_tables("--seed", "-1")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("configuration error:")
    assert len(done.stderr.splitlines()) == 1
    assert not outdir.exists()
    # the rows run in one process: --jobs is no longer a flag
    done = run_tables("--jobs", "2")
    assert done.returncode != 0 and "--jobs" in done.stderr
    assert not outdir.exists()


def _run_tables_module():
    """scripts/run_tables.py loaded as a module, so a test can patch it."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_tables.py"
    spec = importlib.util.spec_from_file_location("run_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("error,code", [
    ("ValueError: no row of this sweep ran", cli.EXIT_ROW),
    ("cap:levels: level cap n_max=1 exceeded", cli.EXIT_CAP),
], ids=["row", "cap"])
def test_run_tables_exits_as_run_does_when_rows_fail(tmp_path, monkeypatch, capsys,
                                                      error, code):
    # each sweep yields one failed row: its fit is skipped, and the exit code
    # is that of ``semicross run`` for the same row
    run_tables = _run_tables_module()

    def one_failed_row(grid):
        yield dict(dict.fromkeys(CSV_COLUMNS, 0), algorithm=grid.algorithm,
                   delta=grid.deltas[0], rel_error=math.nan, error=error)

    monkeypatch.setattr(run_tables, "iter_rows", one_failed_row)
    monkeypatch.setattr(sys, "argv", ["run_tables.py", "--outdir", str(tmp_path)])
    assert run_tables.main() == code
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1  # the header, no fit
    assert err.splitlines() == [f"alg{a}/{pid}: 1 failed rows ({error})"
                                for a in (1, 2) for pid in ("p1", "p2")]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "alg1_p1.csv", "alg1_p2.csv", "alg2_p1.csv", "alg2_p2.csv"]


def test_run_tables_reports_an_unwritable_outdir_in_one_line(tmp_path, monkeypatch,
                                                             capsys):
    run_tables = _run_tables_module()
    (tmp_path / "file").write_text("")
    outdir = tmp_path / "file" / "out"
    monkeypatch.setattr(sys, "argv", ["run_tables.py", "--outdir", str(outdir)])
    assert run_tables.main() == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("i/o error:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_main_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main([
        "run", "--problem", "p1", "--algorithm", "1",
        "--delta-max", "0.03125", "--delta-min", "0.0078125",
        "--noise-dim", "4096", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert all(r["K"] >= 1 for r in rows)


def test_main_run_stdout_when_no_out(capsys):
    code = main([
        "run", "--problem", "p1", "--delta-max", "0.03125",
        "--delta-min", "0.03125", "--noise-dim", "4096",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_main_no_scaling_warns_once(capsys):
    # the driver's warning is the only one; the CLI prints none of its own
    with pytest.warns(UserWarning, match="unscaled operator") as record:
        code = main(["run", "--problem", "p1", "--delta-max", "0.03125",
                     "--delta-min", "0.03125", "--noise-dim", "4096",
                     "--no-scaling"])
    assert code == 0
    assert len(record) == 1
    assert "unscaled" not in capsys.readouterr().err


def test_main_no_normalize_changes_scale(tmp_path):
    common = ["run", "--problem", "p1", "--delta-max", "0.001953125",
              "--delta-min", "0.001953125", "--noise-dim", "4096"]
    out_a = tmp_path / "unit.csv"
    out_b = tmp_path / "raw.csv"
    assert main(common + ["--out", str(out_a)]) == 0
    assert main(common + ["--no-normalize", "--out", str(out_b)]) == 0
    # raw rhs norm is ~0.27, so the same delta is relatively ~4x larger
    assert read_csv(out_b)[0]["rel_error"] > read_csv(out_a)[0]["rel_error"]


def test_main_rejects_inadmissible_tau(capsys):
    code = main(["run", "--tau", "2.0", "--algorithm", "1"])
    assert code == 1
    assert "admissibility" in capsys.readouterr().err


def test_main_rejects_low_qualification_before_any_row(capsys):
    # nu = 0.5 has qualification 1 < 2: a configuration error of the whole
    # grid, so no row runs and no CSV is written
    code = main(["run", "--algorithm", "1", "--nu", "0.5",
                 "--delta-min", "0.03125"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "qualification" in err


@pytest.mark.parametrize("argv", [
    ["run", "--nu", "0"],
    ["run", "--nu", "-1", "--tau", "3"],
    ["constants", "--nu", "0"],
])
def test_main_rejects_nonpositive_nu(argv, capsys):
    assert main(argv) == 1
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan])
def test_grid_rejects_mu_that_is_not_positive_and_finite(mu):
    with pytest.raises(ConfigError, match="mu"):
        dataclasses.replace(small_grid(), mu=mu)


#: flags that keep a run small: two deltas, levels <= 6, <= 200 steps
_SMALL_RUN = ["--delta-max", "0.0625", "--delta-min", "0.03125",
              "--noise-dim", "4096", "--n-max", "6", "--k-abs-max", "200"]


@pytest.mark.parametrize("argv", [
    ["run", "--delta-max", "inf"],
    ["run", "--tau", "nan"],
    ["run", "--gamma", "nan"],
    ["run", "--rho", "nan"],
    ["run", "--r", "nan"],
    ["run", "--rho", "inf"],
    ["run", "--r", "inf"],
    ["run", "--r", "1e300"],
    ["run", "--seed", "-1"],
    ["run", "--algorithm", "2", "--nu", "1e-300"],
    ["run", "--nu", "100"],
    *(["run", "--mu-diagnostic", v] for v in ("-1", "0", "-0.5", "inf", "nan")),
    *(["constants", "--mu", v] for v in ("-1", "nan", "5")),
    ["constants", "--level", "0"],
    ["constants", "--nu", "100"],
    ["constants", "--delta", "1e-300", "--rho", "1e300"],
    ["gamma-dump", "--level", "-1", "--out", "gamma.txt"],
    ["gamma-dump", "--level", "40", "--out", "gamma.txt"],
    ["run", "--jobs", "2"],
    ["run", "--jobs", "1"],
])
def test_bad_values_are_configuration_errors(argv, capsys, tmp_path, monkeypatch):
    # each exits 1 before any row runs, with no CSV and no traceback
    monkeypatch.chdir(tmp_path)
    if argv[0] == "run":  # the flags under test come last, so they win
        argv = argv[:1] + _SMALL_RUN + argv[1:]
    with _deadline(1):
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error:" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("algorithm", ["1", "2"])
def test_budget_past_sys_maxsize_reaches_the_iteration_cap(algorithm, capsys):
    # rho = 1e-300 makes K_n an integer of about 300 digits
    assert main(["run", "--algorithm", algorithm, "--rho", "1e-300", *_SMALL_RUN]) == 2
    assert "failed: cap:iterations" in capsys.readouterr().err


def _reals(*good):
    """Values of a real flag: typical ones or any positive floats."""
    return st.one_of(st.sampled_from(good), st.floats(1e-3, 10.0))


#: values at the edges of, or outside, what a real flag takes
_EDGES = st.sampled_from(["0", "-0.5", "nan", "inf", "-inf", "1e-300", "1e300"])

#: flag: (values it takes, values at its edges or None); rows stay <= 10
_RUN_FLAGS = {
    "--problem": (st.sampled_from(["p1", "p2"]), None),
    "--algorithm": (st.sampled_from([1, 2]), None),
    "--nu": (_reals(0.5, 1.5, 2.5), _EDGES),
    "--delta-max": (st.floats(2.0 ** -6, 4.0), _EDGES),
    "--delta-min": (st.floats(2.0 ** -8, 2.0 ** -6), _EDGES),
    "--gamma": (_reals(0.5), _EDGES),
    "--tau": (_reals(2.5), _EDGES),
    "--rho": (_reals(1.0), _EDGES),
    "--r": (_reals(2.0), _EDGES),
    "--mu-diagnostic": (_reals(0.2, 1.2), _EDGES),
    "--ksec": (st.integers(1, 30), st.integers(-1, 0)),
    "--seed": (st.integers(0, 5), st.just(-1)),
    "--repeats": (st.integers(1, 2), st.just(0)),
    "--n-max": (st.integers(1, 6), st.just(0)),
    "--k-abs-max": (st.integers(1, 300), st.just(0)),
    "--noise-dim": (st.sampled_from([1, 64, 4096]), st.just(0)),
}


@st.composite
def _run_argvs(draw):
    """A small run with any of the flags set, at most one at an edge."""
    edged = draw(st.none() | st.sampled_from(
        [f for f, (_, edges) in _RUN_FLAGS.items() if edges is not None]))
    argv = ["run", *_SMALL_RUN]
    for flag, (values, edges) in _RUN_FLAGS.items():
        if flag == edged:
            argv.append(f"{flag}={draw(edges)}")
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    for flag in ("--no-scaling", "--no-normalize"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_run_argvs())
def test_run_flag_space_ends_in_a_documented_outcome(argv):
    # exit 0 with finite rows, 1 with no CSV, 2 with cap rows, or 4 with a
    # typed runtime error in a row; a traceback fails the example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(), _deadline(2):
        warnings.simplefilter("ignore")
        code = main(argv)
    failed = [line.split(" failed: ", 1)[1]
              for line in err.getvalue().splitlines() if " failed: " in line]
    if code == 1:
        assert out.getvalue() == ""
        assert "configuration error:" in err.getvalue()
        return
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert rows
    if code == 0:
        assert failed == []
        assert all(math.isfinite(float(row[c])) for row in rows for c in CSV_COLUMNS)
    elif code == 2:
        assert any(f.startswith("cap:") for f in failed)
    else:
        assert code == 4 and failed
        assert all(f.startswith("NumericalDegeneracyError:") for f in failed)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=EDGE_RUNS)
def test_edge_parameters_exit_with_a_documented_code(run):
    # the driver property test's values through the front door: exit 0, 1
    # (before any row) or 2, or 4 only for a NumericalDegeneracyError row
    argv = ["run", f"--problem={run['pid']}", f"--algorithm={run['algorithm']}",
            f"--delta-max={run['delta']!r}", f"--delta-min={run['delta']!r}"]
    argv += [f"--{flag}={run[key]!r}" for flag, key in (
        ("rho", "rho"), ("gamma", "gamma"), ("r", "r"), ("tau", "tau"),
        ("ksec", "k_sec"), ("seed", "seed"), ("n-max", "n_max"),
        ("k-abs-max", "k_abs_max"), ("noise-dim", "noise_dim"))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(), _deadline(5):
        warnings.simplefilter("ignore")
        code = main(argv)
    failed = [line.split(" failed: ", 1)[1]
              for line in err.getvalue().splitlines() if " failed: " in line]
    assert code in (0, 1, 2, 4)
    if code == 1:
        assert out.getvalue() == "" and "configuration error:" in err.getvalue()
    if code == 4:
        assert failed and all(
            f.startswith("NumericalDegeneracyError:") for f in failed)


def test_grid_rejects_what_the_discrepancy_driver_does_not_admit():
    def grid(algorithm, nu, tau):
        return ExperimentGrid(problem_id="p1", algorithm=algorithm, nu=nu,
                              deltas=(0.1,), params=RunParams(delta=0.1, tau=tau),
                              mu=0.2)

    with pytest.raises(ConfigError, match="qualification"):
        grid(1, 0.5, 9.0)
    with pytest.raises(ConfigError, match="admissibility"):
        grid(1, 1.5, 2.0)
    # the balancing driver takes both
    grid(2, 0.5, 9.0)
    grid(2, 1.5, 2.0)


def test_main_usage_error_exit_code(capsys):
    assert main(["run", "--problem", "p9"]) == 1
    assert "invalid choice: 'p9'" in capsys.readouterr().err


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_main_cap_exit_code(tmp_path):
    out = tmp_path / "cap.csv"
    code = main([
        "run", "--problem", "p2", "--delta-max", "0.001953125",
        "--delta-min", "0.001953125", "--n-max", "4",
        "--noise-dim", "4096", "--out", str(out),
    ])
    assert code == 2
    assert out.exists()


def test_main_diagnostics_never_fail_rows(tmp_path):
    # the default diagnostic mu = 1.2 exceeds the qualification 0.5 of the
    # nu = 1/4 method: the rows must still run
    out = tmp_path / "low.csv"
    code = main([
        "run", "--algorithm", "2", "--nu", "0.25", "--delta-max", "0.0625",
        "--delta-min", "0.03", "--noise-dim", "4096",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert all(math.isfinite(r["rel_error"]) and r["K"] >= 1 for r in rows)


def test_main_failed_row_exit_code(tmp_path, monkeypatch, capsys):
    from semicross import cli
    from semicross.methods import NumericalDegeneracyError

    def diverge(*args, **kwargs):
        raise NumericalDegeneracyError("non-finite residual norm")

    monkeypatch.setattr(cli, "run_discrepancy", diverge)
    out = tmp_path / "failed.csv"
    code = main([
        "run", "--problem", "p1", "--delta-max", "0.03125",
        "--delta-min", "0.03125", "--noise-dim", "4096",
        "--out", str(out),
    ])
    assert code == 4
    assert math.isnan(read_csv(out)[0]["rel_error"])
    assert "non-finite" in capsys.readouterr().err


def test_main_rates(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    main([
        "run", "--problem", "p1", "--delta-max", "0.03125",
        "--delta-min", "0.00390625", "--noise-dim", "4096",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert main(["rates", "--csv", str(out)]) == 0
    text = capsys.readouterr().out
    assert "error_slope" in text and "stop_index_slope" in text


_RATES_ROWS = (
    "1,1.5,0.03125,5,10,4,0.1,0.2,6144,0",
    "1,1.5,0.015625,5,10,5,0.08,0.2,6144,1",
    "1,1.5,0.0078125,5,10,6,0.06,0.2,6144,2",
)


@pytest.mark.parametrize("header, rows", [
    # a missing column
    (",".join(CSV_COLUMNS[:-1]), [r.rsplit(",", 1)[0] for r in _RATES_ROWS]),
    # a non-numeric cell
    (",".join(CSV_COLUMNS), [_RATES_ROWS[0].replace("0.1,", "n/a,", 1),
                             *_RATES_ROWS[1:]]),
    # kept rows (finite rel_error, K >= 1) that no log-log fit takes
    (",".join(CSV_COLUMNS), [_RATES_ROWS[0].replace("0.1,", "0,", 1),
                             *_RATES_ROWS[1:]]),
    (",".join(CSV_COLUMNS), [_RATES_ROWS[0].replace("0.03125", "-0.03125"),
                             *_RATES_ROWS[1:]]),
    (",".join(CSV_COLUMNS), [_RATES_ROWS[0].replace("0.03125", "nan"),
                             *_RATES_ROWS[1:]]),
    # good rows at one delta: no slope against log delta
    (",".join(CSV_COLUMNS), [f"1,1.5,0.0625,5,20,{k},0.1,0.2,6144,{k}"
                             for k in (11, 12, 13)]),
    # a header-only file without the grid columns, and an empty file
    ("algorithm,nu,delta", []),
    ("", []),
], ids=["missing-column", "non-numeric", "zero-error", "negative-delta",
        "nan-delta", "one-delta", "header-only", "empty"])
def test_rates_on_a_malformed_csv_is_a_configuration_error(header, rows, tmp_path,
                                                          capfd):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *rows]) + "\n" if header else "")
    assert main(["rates", "--csv", str(path)]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert str(path) in err


def test_main_gamma_dump(tmp_path, capsys):
    out = tmp_path / "gamma.txt"
    code = main(["gamma-dump", "--level", "2", "--out", str(out),
                 "--compare-rectangle"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 48
    text = capsys.readouterr().out
    assert "48 pairs" in text and "256 pairs" in text


def test_gamma_dump_refuses_a_cross_past_its_bound(tmp_path, capsys, monkeypatch):
    # level 10 (11,534,336 pairs) is the largest cross written; level 11
    # (50,331,648 pairs) is refused before anything is allocated
    written = []
    monkeypatch.setattr(semicross.cli, "export_gamma",
                        lambda n, path: written.append(n))
    monkeypatch.chdir(tmp_path)
    assert main(["gamma-dump", "--level", "10", "--out", "g.txt"]) == 0
    capsys.readouterr()
    assert main(["gamma-dump", "--level", "11", "--out", "g.txt"]) == 1
    assert written == [10]
    out, err = capsys.readouterr()
    assert out == "" and err.count("configuration error:") == 1
    assert list(tmp_path.iterdir()) == []


def test_main_constants(capsys):
    code = main(["constants", "--nu", "1.5", "--gamma", "0.5", "--mu", "1.2",
                 "--delta", "0.0625", "--level", "6"])
    assert code == 0
    text = capsys.readouterr().out
    values = dict(line.split() for line in text.splitlines()
                  if len(line.split()) == 2)
    assert float(values["tau_threshold"]) == pytest.approx(2.2748, abs=5e-5)
    assert float(values["c2"]) >= 1.0


@pytest.mark.parametrize("argv, printed", [
    ([], """\
method nu-1.5 qualification 3 kappa0 1 kappa2 6
tau 2.2847548783981959
tau_threshold 2.274754878
c1 4.316421545
c2 18.31454033
c_alg1 57.7430289
c_alg2 49.33263545
k_opt 5
c3 196.6731023
c4 5.827174603
c5 1.049232757
"""),
    (["--nu", "30"], """\
method nu-30 qualification 60 kappa0 1 kappa2 8.32099e+81
tau 4.5609722408553958e+40
tau_threshold 4.560972241e+40
c1 4.560972241e+40
c2 7.575344152e+25
c_alg1 2.272822964e+26
c_alg2 3.765930636e+38
k_opt 3.688901684e+37
c3 3.999890855e+14
c4 46.71447271
c5 1.049232757
"""),
    (["--nu", "0.5", "--mu", "0.5"], """\
method nu-0.5 qualification 1 kappa0 1 kappa2 1
tau 1.6223724356957945
tau_threshold 1.612372436
c1 3.654039102
c2 n/a
c_alg1 n/a
c_alg2 17.30699484
k_opt 4
c3 n/a
c4 n/a
c5 n/a
"""),
    (["--nu", "2", "--tau", "5", "--level", "3"], """\
method nu-2 qualification 4 kappa0 1 kappa2 24
tau 5
tau_threshold 3.474873734
c1 5.558207067
c2 3.499837883
c_alg1 14.11629216
c_alg2 92.63987266
k_opt 10
c3 85.97474984
c4 4.633359857
c5 1.049232757
"""),
])
def test_constants_prints_its_pinned_lines(argv, printed, capsys):
    assert main(["constants", *argv]) == 0
    assert capsys.readouterr().out == printed


def test_constants_default_mu_is_capped_at_the_qualification(capsys):
    # nu = 0.5 has qualification 1, below the default mu 1.2
    assert main(["constants", "--nu", "0.5"]) == 0
    default = capsys.readouterr().out
    assert main(["constants", "--nu", "0.5", "--mu", "1.0"]) == 0
    assert default == capsys.readouterr().out


#: the constants of the discrepancy analysis, which need tau above the threshold
_DISCREPANCY_CONSTANTS = ("c2", "c_alg1", "c3", "c4", "c5")


def _printed_values(text):
    return dict(line.split() for line in text.splitlines() if len(line.split()) == 2)


def test_constants_takes_a_tau_above_the_threshold_where_c2_applies(capsys):
    # nu = 1.5 (qualification 3) at the default mu 1.2 <= qualification - 1
    assert main(["constants", "--tau", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error:" in err and "admissibility threshold" in err


@pytest.mark.parametrize("argv", [
    ["--mu", "2.5", "--tau", "2"],  # mu above qualification - 1 = 2
    ["--nu", "0.75", "--mu", "0.3", "--tau", "1"],  # qualification 1.5 < 2
])
def test_constants_outside_the_discrepancy_analysis_take_any_tau(argv, capsys):
    assert main(["constants", *argv]) == 0
    values = _printed_values(capsys.readouterr().out)
    assert float(values["tau"]) < float(values["tau_threshold"])
    assert [values[key] for key in _DISCREPANCY_CONSTANTS] == ["n/a"] * 5


def test_constants_compute_a_k_bound_whose_delta_factor_alone_overflows(capsys):
    # delta^(-1/(mu+1)) is past the float range here, while k_bound, c2
    # (rho/delta)^(1/(mu+1)), is about 3e302
    assert main(["constants", "--delta", "1e-320", "--rho", "1e-20", "--mu", "0.001"]) == 0
    assert capsys.readouterr().err == ""


def test_constants_prints_what_a_report_computes(capsys):
    # p1 balancing at delta 2^-4 stops on its first level, 4
    report = run_balancing(problems.get_problem("p1"), nu_method(1.5),
                           RunParams(delta=2.0 ** -4, tau=cli.ACCEPTANCE_TAU))
    assert report.levels == (4,)
    diag = report.diagnostics(1.2)
    assert main(["constants", "--delta", "0.0625", "--level", "4",
                 "--tau", repr(cli.ACCEPTANCE_TAU)]) == 0
    values = _printed_values(capsys.readouterr().out)
    keys = ("tau_threshold", "c1", "c_alg2", "k_opt", *_DISCREPANCY_CONSTANTS)
    assert {key: values[key] for key in keys} == {key: f"{diag[key]:.10g}" for key in keys}


def test_a_run_row_computes_no_diagnostics(monkeypatch):
    payload = _row_payload(small_grid(), 0)
    row = _run_row(payload)

    def refuse(*args):
        raise AssertionError("a row computed the diagnostics")

    monkeypatch.setattr(driver, "_diagnostics", refuse)
    assert _run_row(payload) == row and row["error"] is None


@pytest.mark.parametrize("nu", [1.5, 13.0, 14.0, 30.0, 85.0])
def test_the_default_tau_lies_above_the_threshold_at_every_nu(nu, capsys):
    # 0.01 is lost to rounding from nu = 14 on (threshold 2.76e14 at gamma
    # 0.5); there the default is the next float above the threshold
    threshold = admissibility_threshold(nu_method(nu), 0.5)
    assert main(["constants", "--nu", str(nu)]) == 0
    values = dict(line.split() for line in capsys.readouterr().out.splitlines()
                  if len(line.split()) == 2)
    tau = float(values["tau"])
    assert tau > threshold
    if threshold + 0.01 > threshold:
        assert tau == threshold + 0.01
    else:
        assert tau == math.nextafter(threshold, math.inf)


def test_run_and_constants_take_the_default_tau_at_nu_30(tmp_path):
    out = tmp_path / "nu30.csv"
    assert main(["constants", "--nu", "30"]) == 0
    assert main(["run", "--nu", "30", *_SMALL_RUN, "--out", str(out)]) == 0
    assert [row["nu"] for row in read_csv(out)] == [30.0, 30.0]


def _subcommand(command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


#: each subcommand's flags: option strings, dest, type, default and choices
_FLAGS = {
    "run": [
        (("-h", "--help"), "help", None, argparse.SUPPRESS, None),
        (("--config",), "config", None, None, None),
        (("--problem",), "problem", None, "p1", ("p1", "p2")),
        (("--algorithm",), "algorithm", int, 1, (1, 2)),
        (("--nu",), "nu", cli._positive_float, 1.5, None),
        (("--delta-max",), "delta_max", float, 2.0 ** -4, None),
        (("--delta-min",), "delta_min", float, 2.0 ** -13, None),
        (("--gamma",), "gamma", float, 0.5, None),
        (("--tau",), "tau", float, None, None),
        (("--rho",), "rho", float, 1.0, None),
        (("--r",), "r", float, 2.0, None),
        (("--ksec",), "ksec", int, 20, None),
        (("--seed",), "seed", int, 0, None),
        (("--repeats",), "repeats", int, 1, None),
        (("--mu-diagnostic",), "mu_diagnostic", cli._positive_float, None, None),
        (("--no-scaling",), "no_scaling", None, False, None),
        (("--no-normalize",), "no_normalize", None, False, None),
        (("--n-max",), "n_max", int, 12, None),
        (("--k-abs-max",), "k_abs_max", int, 10 ** 6, None),
        (("--noise-dim",), "noise_dim", int, 2 ** 20, None),
        (("--out",), "out", None, None, None),
    ],
    "rates": [
        (("-h", "--help"), "help", None, argparse.SUPPRESS, None),
        (("--csv",), "csv", None, None, None),
    ],
    "gamma-dump": [
        (("-h", "--help"), "help", None, argparse.SUPPRESS, None),
        (("--level",), "level", int, None, None),
        (("--out",), "out", None, None, None),
        (("--compare-rectangle",), "compare_rectangle", None, False, None),
    ],
    "constants": [
        (("-h", "--help"), "help", None, argparse.SUPPRESS, None),
        (("--nu",), "nu", cli._positive_float, 1.5, None),
        (("--gamma",), "gamma", float, 0.5, None),
        (("--tau",), "tau", float, None, None),
        (("--delta",), "delta", float, 2.0 ** -4, None),
        (("--rho",), "rho", float, 1.0, None),
        (("--r",), "r", float, 2.0, None),
        (("--mu",), "mu", cli._positive_float, None, None),
        (("--level",), "level", int, 6, None),
    ],
}


@pytest.mark.parametrize("command", list(_FLAGS))
def test_each_subcommand_keeps_its_flags(command):
    actions = [(tuple(a.option_strings), a.dest, a.type, a.default, a.choices)
               for a in _subcommand(command)._actions]
    assert sorted(actions, key=repr) == sorted(_FLAGS[command], key=repr)


#: the dest of each flag that sets a RunParams field with a default, and the
#: field (tau defaults to None: ``_params`` resolves it)
_FIELD_OF = {"gamma": "gamma", "rho": "rho", "r": "r", "ksec": "k_sec",
             "seed": "seed", "n_max": "n_max", "k_abs_max": "k_abs_max",
             "noise_dim": "noise_dim"}


@pytest.mark.parametrize("command", ["run", "constants"])
def test_run_parameter_flags_take_their_defaults_from_run_params(command, monkeypatch):
    fields = {f.name for f in dataclasses.fields(RunParams)
              if f.default is not dataclasses.MISSING}
    assert set(_FIELD_OF.values()) == fields - {"tau"}
    marks = {field: object() for field in fields}
    for field, mark in marks.items():
        monkeypatch.setattr(RunParams, field, mark)
    actions = {a.dest: a for a in _subcommand(command)._actions}
    for dest, field in _FIELD_OF.items():
        if dest in actions:
            assert actions[dest].default is marks[field], dest
    assert actions["tau"].default is None


def test_main_io_error(tmp_path):
    code = main(["gamma-dump", "--level", "1",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "f.txt")])
    assert code == 3


def test_unwritable_out_fails_before_any_row(tmp_path, monkeypatch, capsys):
    # the CSV is created when the run starts, so a bad path costs no sweep
    ran, run_row = [], cli._run_row

    def counted(payload):
        ran.append(payload["delta"])
        return run_row(payload)

    monkeypatch.setattr(cli, "_run_row", counted)
    code = main(["run", *_SMALL_RUN, "--out", str(tmp_path / "no" / "x.csv")])
    out, err = capsys.readouterr()
    assert code == 3 and ran == []
    assert out == "" and err.startswith("i/o error:") and err.count("\n") == 1


def test_each_row_is_in_the_out_file_when_the_next_row_starts(tmp_path, monkeypatch):
    out = tmp_path / "grid.csv"
    seen, run_row = [], cli._run_row

    def peeking(payload):
        seen.append(out.read_text())
        return run_row(payload)

    monkeypatch.setattr(cli, "_run_row", peeking)
    assert main(["run", *_SMALL_RUN, "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    assert len(lines) == 3
    assert seen == ["".join(lines[:1]), "".join(lines[:2])]


def test_an_interrupted_run_keeps_the_rows_that_ended(tmp_path, monkeypatch, capsys):
    whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
    assert main(["run", *_SMALL_RUN, "--out", str(whole)]) == 0
    capsys.readouterr()
    calls, run = [], cli.run_discrepancy

    def interrupted_in_row_two(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_discrepancy", interrupted_in_row_two)
    before = threading.active_count()
    try:
        code = main(["run", *_SMALL_RUN, "--out", str(cut)])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    out, err = capsys.readouterr()
    assert code == 130 and out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    # the header and row 1, whole; no partial line of row 2
    assert cut.read_text() == "".join(whole.read_text().splitlines(keepends=True)[:2])
    assert threading.active_count() == before


@pytest.mark.parametrize("how", ["flag", "config"])
def test_jobs_is_neither_a_flag_nor_a_config_key(how, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = ["run", *_SMALL_RUN, "--out", str(out)]
    if how == "flag":
        argv += ["--jobs", "2"]
    else:
        (tmp_path / "run.cfg").write_text("jobs = 2\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("configuration error:") == 1
    assert "--jobs" in err if how == "flag" else "'jobs'" in err
    assert not out.exists()


def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# grid configuration\n"
        "problem = p1\n"
        "delta-max = 0.03125\n"
        "delta-min: 0.03125\n"
        "noise-dim = 4096\n"
        "seed = 3\n"
    )
    out1 = tmp_path / "a.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = read_csv(out1)
    assert rows[0]["seed"] == 3
    # command line overrides the file
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--seed", "8",
                 "--out", str(out2)]) == 0
    assert read_csv(out2)[0]["seed"] == 8


def test_config_file_loses_to_flag_given_at_its_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.9\n")
    common = ["run", "--problem", "p1", "--delta-max", "0.0078125",
              "--delta-min", "0.0078125", "--noise-dim", "4096"]
    paths = {tag: tmp_path / f"{tag}.csv" for tag in ("both", "flag", "file")}
    assert main(common + ["--config", str(cfg), "--gamma", "0.5",
                          "--out", str(paths["both"])]) == 0
    assert main(common + ["--gamma", "0.5", "--out", str(paths["flag"])]) == 0
    assert main(common + ["--config", str(cfg), "--out", str(paths["file"])]) == 0
    assert paths["both"].read_text() == paths["flag"].read_text()
    assert paths["file"].read_text() != paths["flag"].read_text()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("garbage-knob = 1\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "garbage-knob" in capsys.readouterr().err
    # a file naming another would be overridden by the command line's
    # --config, so the other file would never be read
    (tmp_path / "other.cfg").write_text("delta-max = 0.0625\n")
    cfg.write_text(f"config = {tmp_path / 'other.cfg'}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error:") == 1
    assert str(cfg) in err and "'config'" in err


@pytest.mark.parametrize("line, message", [
    ("problem = p9", "argument --problem: invalid choice: 'p9'"),
    ("nu = abc", "argument --nu: invalid float value: 'abc'"),
    ("jobs = 1", "unknown config key 'jobs'"),
    ("handler = 1", "unknown config key 'handler'"),
    ("command = x", "unknown config key 'command'"),
    ("help = true", "unknown config key 'help'"),
    ("no-scaling", "bad.cfg:1: expected `key = value`"),
])
def test_config_file_values_pass_the_flag_checks(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("configuration error:") == 1


def test_config_file_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"delta-max = 0.0625\nproblem = p\xff\n")
    assert main(["run", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error:")
    assert err.count("\n") == 1 and str(cfg) in err and "UTF-8" in err


def test_config_file_with_a_byte_order_mark_gives_the_same_tokens(tmp_path):
    # Notepad and PowerShell 5's `Out-File -Encoding utf8` start UTF-8 files
    # with a BOM, which must not become part of the first key
    text = "problem = p2\nalgorithm = 2\ndelta-max = 0.0625\ndelta-min = 0.0625\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    run = cli._build_parser().parse_args(["run"]).parser
    tokens = cli._config_tokens(plain, run)
    assert tokens[0] == "--problem=p2"
    assert cli._config_tokens(bom, run) == tokens
    outs = {cfg: tmp_path / f"{cfg.stem}.csv" for cfg in (plain, bom)}
    for cfg, out in outs.items():
        assert main(["run", "--config", str(cfg), "--noise-dim", "4096",
                     "--out", str(out)]) == 0
    assert outs[bom].read_bytes() == outs[plain].read_bytes()
    assert read_csv(outs[bom])[0]["algorithm"] == 2


def test_config_line_splits_at_its_first_separator(tmp_path):
    out = tmp_path / "a=b.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out: {out}\ndelta-max = 0.0625\ndelta-min: 0.03125\n"
                   "noise-dim=4096\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(read_csv(out)) == 2


def test_config_file_boolean_flags(tmp_path, capsys):
    common = ["run", "--delta-max", "0.03125", "--delta-min", "0.03125",
              "--noise-dim", "4096"]
    paths = {tag: tmp_path / f"{tag}.csv" for tag in ("on", "off", "flag", "none")}
    for tag, value in (("on", "yes"), ("off", "false")):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(f"no-normalize = {value}\n")
        assert main(common + ["--config", str(cfg), "--out", str(paths[tag])]) == 0
    assert main(common + ["--no-normalize", "--out", str(paths["flag"])]) == 0
    assert main(common + ["--out", str(paths["none"])]) == 0
    assert paths["on"].read_text() == paths["flag"].read_text()
    assert paths["off"].read_text() == paths["none"].read_text()
    assert paths["on"].read_text() != paths["none"].read_text()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-normalize = maybe\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "no-normalize" in capsys.readouterr().err


def test_runtime_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(semicross.__file__))
    code = "import sys, semicross, semicross.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
