import math

import pytest

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
)
from semicross.driver import ConfigError, RunParams

TAU_REF = 1.01 + math.sqrt(13.0 / 8.0)


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
    assert [r["seed"] for r in rows_a] == [0, 1, 2]  # per-row policy
    assert all(r["error"] is None for r in rows_a)


def test_grid_parallel_matches_serial():
    grid = small_grid(problem="p2", algorithm=2)
    assert run_grid(grid, jobs=2) == run_grid(grid, jobs=1)


def test_fixed_seed_policy():
    grid = ExperimentGrid(
        problem_id="p1", algorithm=1, nu=1.5,
        deltas=(2.0 ** -5, 2.0 ** -6),
        params=RunParams(delta=2.0 ** -5, tau=TAU_REF, seed=9, noise_dim=2 ** 12),
        mu=1.2, seed_policy="fixed",
    )
    rows = run_grid(grid)
    assert [r["seed"] for r in rows] == [9, 9]


def test_repeats_average_relative_error():
    base = small_grid(deltas=(2.0 ** -5, 2.0 ** -6))
    import dataclasses
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
    import dataclasses
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


def test_main_gamma_dump(tmp_path, capsys):
    out = tmp_path / "gamma.txt"
    code = main(["gamma-dump", "--level", "2", "--out", str(out),
                 "--compare-rectangle"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 48
    text = capsys.readouterr().out
    assert "48 pairs" in text and "256 pairs" in text


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
