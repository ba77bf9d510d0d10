import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import semicross
from semicross import cli, problems
from semicross.cli import (
    CSV_COLUMNS,
    ExperimentGrid,
    emit_csv,
    main,
    rate_fit,
    read_csv,
    run_grid,
    _build_parser,
    _delta_grid,
    _row_payload,
    _run_row,
)
from semicross.driver import ConfigError, RunParams

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
    emit_csv([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_round_trip_is_bit_exact(tmp_path):
    rows = run_grid(small_grid())
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
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


def test_grid_rows_and_determinism():
    grid = small_grid()
    rows_a = run_grid(grid, jobs=1)
    rows_b = run_grid(grid, jobs=1)
    assert rows_a == rows_b
    assert len(rows_a) == 3
    assert [r["seed"] for r in rows_a] == [0, 1, 2]  # row i: seed + i
    assert all(r["error"] is None for r in rows_a)


def test_grid_parallel_matches_serial():
    grid = small_grid(problem="p2", algorithm=2)
    assert run_grid(grid, jobs=2) == run_grid(grid, jobs=1)


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


def test_serial_rows_equal_a_plain_row_loop_and_the_process_pool():
    grid = dataclasses.replace(small_grid(problem="p2", algorithm=2), repeats=3)
    problems._noise_norm.cache_clear()
    plain = [_run_row(_row_payload(grid, i)) for i in range(len(grid.deltas))]
    problems._noise_norm.cache_clear()
    rows = run_grid(grid)
    assert rows == plain == run_grid(grid, jobs=2)
    assert all(r["error"] is None for r in rows)
    assert ([r["rel_error"].hex() for r in rows]
            == [r["rel_error"].hex() for r in plain])


def test_each_noise_norm_is_drawn_once_per_process(monkeypatch):
    dim = 2 ** 16  # past every level window the rows read
    grid = dataclasses.replace(small_grid(), repeats=2, params=RunParams(
        delta=2.0 ** -5, tau=TAU_REF, noise_dim=dim))
    problems._noise_norm.cache_clear()
    streams = _counted_streams(monkeypatch)
    run_grid(grid)
    run_grid(grid)
    full = Counter(s.seed for s in streams if s.drawn == dim)
    assert full == {seed: 1 for seed in (0, 1, 2, 10_007, 10_008, 10_009)}


def test_the_calling_thread_draws_every_cpu_count_th_norm(monkeypatch):
    cpus, dim = len(os.sched_getaffinity(0)), 2 ** 16
    grid = dataclasses.replace(small_grid(), repeats=2, params=RunParams(
        delta=2.0 ** -5, tau=TAU_REF, noise_dim=dim))
    problems._noise_norm.cache_clear()
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
    problems._noise_norm.cache_clear()
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
    problems._noise_norm.cache_clear()
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


def test_run_tables_rejects_bad_arguments_before_making_anything(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for flag in (["--jobs", "0"], ["--seed", "-1"]):
        outdir = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_tables.py"),
             "--outdir", str(outdir), *flag],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1, flag
        assert done.stdout == ""
        assert done.stderr.startswith("configuration error:")
        assert len(done.stderr.splitlines()) == 1
        assert not outdir.exists()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_main_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main([
        "run", "--problem", "p1", "--algorithm", "1",
        "--delta-max", "0.03125", "--delta-min", "0.0078125",
        "--noise-dim", "4096", "--jobs", "1", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert all(r["K"] >= 1 for r in rows)


def test_main_run_stdout_when_no_out(capsys):
    code = main([
        "run", "--problem", "p1", "--delta-max", "0.03125",
        "--delta-min", "0.03125", "--noise-dim", "4096", "--jobs", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_run_defaults_to_one_job():
    assert _build_parser().parse_args(["run"]).jobs == 1


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
              "--delta-min", "0.001953125", "--noise-dim", "4096",
              "--jobs", "1"]
    out_a = tmp_path / "unit.csv"
    out_b = tmp_path / "raw.csv"
    assert main(common + ["--out", str(out_a)]) == 0
    assert main(common + ["--no-normalize", "--out", str(out_b)]) == 0
    # raw rhs norm is ~0.27, so the same delta is relatively ~4x larger
    assert read_csv(out_b)[0]["rel_error"] > read_csv(out_a)[0]["rel_error"]


def test_main_rejects_inadmissible_tau(capsys):
    code = main(["run", "--tau", "2.0", "--algorithm", "1", "--jobs", "1"])
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
    ["run", "--jobs", "0"],
    ["run", "--jobs", "-3"],
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
    argv = ["run", *_SMALL_RUN, "--jobs=1"]
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
        "--noise-dim", "4096", "--jobs", "1", "--out", str(out),
    ])
    assert code == 2
    assert out.exists()


def test_main_diagnostics_never_fail_rows(tmp_path):
    # the default diagnostic mu = 1.2 exceeds the qualification 0.5 of the
    # nu = 1/4 method: the rows must still run
    out = tmp_path / "low.csv"
    code = main([
        "run", "--algorithm", "2", "--nu", "0.25", "--delta-max", "0.0625",
        "--delta-min", "0.03", "--noise-dim", "4096", "--jobs", "1",
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
        "--delta-min", "0.03125", "--noise-dim", "4096", "--jobs", "1",
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
        "--jobs", "1", "--out", str(out),
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
], ids=["missing-column", "non-numeric", "zero-error", "negative-delta",
        "nan-delta"])
def test_rates_on_a_malformed_csv_is_a_configuration_error(header, rows, tmp_path,
                                                          capfd):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
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


def test_main_io_error(tmp_path):
    code = main(["gamma-dump", "--level", "1",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "f.txt")])
    assert code == 3


def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# grid configuration\n"
        "problem = p1\n"
        "delta-max = 0.03125\n"
        "delta-min: 0.03125\n"
        "noise-dim = 4096\n"
        "jobs = 1\n"
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
              "--delta-min", "0.0078125", "--noise-dim", "4096", "--jobs", "1"]
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
    ("jobs = 0", "jobs must be >= 1"),
])
def test_config_file_values_pass_the_flag_checks(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


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
