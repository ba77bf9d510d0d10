"""End-to-end acceptance suite.

One test per criterion; each prints a `[acceptance] criterion N ...: PASS`
line (run with -s to see them). The delta grids reuse shared module-scoped
fixtures so the expensive adaptive runs execute once.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from semicross.cli import rate_fit, read_csv
from semicross.coeffs import CoeffVec
from semicross.driver import RunParams, run_balancing, run_discrepancy
from semicross.hypercross import assemble, gamma_count
from semicross.methods import (
    filter_value,
    init_state,
    nu_method,
    residual_profile,
    step,
)
from semicross.problems import get_problem, green_operator

from helpers import DiagonalOperator, cheb4_residual, gamma_pairs, green_spectrum

TAU_REF = 1.01 + math.sqrt(13.0 / 8.0)
GRID_DELTAS = tuple(2.0 ** -e for e in range(4, 14))
GRID_MU = {"p1": 1.2, "p2": 0.2}
ERROR_WINDOW = {"p1": (0.40, 0.70), "p2": (0.10, 0.30)}
K_WINDOW_P1 = (-0.60, -0.30)
#: levels, budgets, stop index, info_count and rel_error of every grid run
GRID_PINNED = Path(__file__).with_name("grid_pinned.json")
#: ``scripts/grid_digest.py --seed 0``: the bits of every grid run, and
#: with ``--noise-dim 3000``, where the windows from level 6 on run past
#: noise_dim
GRID_DIGESTS = {(): Path(__file__).with_name("grid_digest_seed0.txt"),
                ("--noise-dim", "3000"): Path(__file__).with_name("grid_digest_nd3000.txt")}


def _ok(label: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {state}{suffix}")
    assert passed, f"{label}{suffix}"


def _grid_params(delta: float, seed: int) -> RunParams:
    return RunParams(delta=delta, rho=1.0, gamma=0.5, tau=TAU_REF, r=2.0,
                     k_sec=20, seed=seed)


@pytest.fixture(scope="module")
def grid_reports():
    """All four delta sweeps (algorithm x problem), plus wall times."""
    spec = nu_method(1.5)
    out = {}
    times = {}
    for algorithm, runner in ((1, run_discrepancy), (2, run_balancing)):
        for pid in ("p1", "p2"):
            problem = get_problem(pid)
            t0 = time.time()
            reports = [
                runner(problem, spec, _grid_params(d, seed=i))
                for i, d in enumerate(GRID_DELTAS)
            ]
            times[(algorithm, pid)] = time.time() - t0
            out[(algorithm, pid)] = reports
    return out, times


# ---------------------------------------------------------------------------
# criterion 1: hyperbolic-cross cardinality
# ---------------------------------------------------------------------------

def test_criterion_1_cardinality():
    t0 = time.time()
    ok = True
    for n in range(0, 9):
        pairs = gamma_pairs(n)
        distinct = np.unique(pairs[:, 0] * (1 << 40) + pairs[:, 1]).size
        ok &= pairs.shape[0] == distinct == (1 << (2 * n)) * (n + 1) == gamma_count(n)
    ok &= gamma_count(2) == 48
    elapsed = time.time() - t0
    _ok("criterion 1 (cross cardinality, n=0..8, |Gamma_2|=48)",
        ok and elapsed < 1.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: residual-polynomial suite
# ---------------------------------------------------------------------------

def test_criterion_2_residual_suite():
    t0 = time.time()
    lam = np.linspace(0.0, 1.0, 1001)
    ok = True
    for nu in (0.5, 1.0, 1.5):
        spec = nu_method(nu)
        kap = spec.kappa_mu(2.0 * nu)
        prof = residual_profile(spec, 200, lam)
        ok &= bool(np.max(np.abs(prof[:, 0] - 1.0)) <= 1e-12)  # r_k(0) = 1
        for k in range(1, 201):
            ok &= bool(np.max(np.abs(prof[k])) <= spec.kappa0 + 1e-10)
            ok &= bool(np.max(np.abs(lam ** nu * prof[k]))
                       <= kap / (k + 1.0) ** (2 * nu) + 1e-10)
        if nu == 0.5:
            worst = max(
                float(np.max(np.abs(prof[k] - cheb4_residual(k, lam))))
                for k in range(1, 201)
            )
            ok &= worst <= 1e-11
    elapsed = time.time() - t0
    _ok("criterion 2 (residual suite, nu in {0.5,1,1.5}, k<=200)",
        ok and elapsed < 30.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: Lipschitz inequality suites
# ---------------------------------------------------------------------------

def test_criterion_3_lipschitz_suites():
    rng = np.random.default_rng(2024)
    lam = rng.uniform(0.0, 1.0, size=10_000)
    tau = rng.uniform(0.0, 1.0, size=10_000)
    gap = np.abs(lam - tau)
    points = np.concatenate((lam, tau))
    slack_floor = -1e-10
    ok = True
    for nu in (0.5, 1.0, 1.5):
        spec = nu_method(nu)
        k0, k2 = spec.kappa0, spec.kappa_mu(2.0)
        prof = residual_profile(spec, 100, points)
        for k in (1, 5, 20, 100):
            r_lam = prof[k][:10_000]
            r_tau = prof[k][10_000:]
            d_r = np.abs(r_lam - r_tau)
            ok &= bool(np.min(2.0 * k0 * k * k * gap - d_r) >= slack_floor)
            if spec.qualification < 2.0:
                continue  # remaining bounds assume qualification >= 2
            ok &= bool(np.min(2.0 * k2 * gap
                              - np.abs(lam * r_lam - tau * r_tau)) >= slack_floor)
            ok &= bool(np.min((k0 + 2.0 * k2) * gap - lam * d_r) >= slack_floor)
            lip = 2.0 * k0 * math.sqrt(0.5 + k2 / k0) * k
            ok &= bool(np.min(lip * gap - np.sqrt(lam) * d_r) >= slack_floor)
    _ok("criterion 3 (Lipschitz suites, 1e4 pairs, k in {1,5,20,100})", ok)


# ---------------------------------------------------------------------------
# criterion 4: iteration equals spectral filter
# ---------------------------------------------------------------------------

def test_criterion_4_filter_oracle():
    rng = np.random.default_rng(64)
    sigma = rng.uniform(-1.0, 1.0, size=64)
    data = rng.standard_normal(64)
    op = DiagonalOperator(sigma)
    rhs = CoeffVec(data)
    lam = sigma ** 2
    ok = True
    for nu in (0.5, 1.5):
        spec = nu_method(nu)
        state = init_state(op, rhs, spec)
        worst = 0.0
        for _ in range(100):
            predicted = filter_value(spec, state.k + 1, lam) * sigma * data
            err = (np.linalg.norm(state.x_curr.coeffs - predicted)
                   / np.linalg.norm(predicted))
            worst = max(worst, err)
            state = step(state, op, rhs, spec)
        ok &= worst <= 1e-9
    _ok("criterion 4 (iteration == spectral filter, dim 64, k<=100)", ok,
        f"worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: discretization bounds realized
# ---------------------------------------------------------------------------

def test_criterion_5_bounds_realized():
    from semicross.hypercross import discretization_bounds

    ok = True
    for n in range(1, 7):
        src = green_operator(scaled=True)
        op = assemble(src, n)
        keep = 1 << n
        diag = green_spectrum(op.dim)
        retained = np.zeros(op.dim)
        retained[:keep] = diag[:keep]
        # diagonal operators: both norms are exact suprema; the spectrum
        # tail beyond the window is monotone, so its sup is the next entry
        norm_a2 = max(float(np.max(np.abs(diag ** 2 - retained ** 2))),
                      (1.0 / (op.dim + 1) ** 2) ** 2)
        norm_mixed = float(np.max(np.abs(retained * (diag - retained))))
        b1, b2, _ = discretization_bounds(2.0, n)
        ok &= norm_a2 <= b1 and norm_mixed <= b2
    _ok("criterion 5 (discretization bounds, r=2, n<=6)", ok)


# ---------------------------------------------------------------------------
# criteria 6-7: rate reproduction
# ---------------------------------------------------------------------------

def _slopes(reports):
    deltas = [r.delta for r in reports]
    err = rate_fit(list(zip(deltas, [r.rel_error for r in reports])))
    kslope = rate_fit(list(zip(deltas, [float(r.stop_index) for r in reports])))
    return err, kslope


def test_criterion_6_discrepancy_rates(grid_reports):
    reports, times = grid_reports
    err1, k1 = _slopes(reports[(1, "p1")])
    err2, _ = _slopes(reports[(1, "p2")])
    elapsed = times[(1, "p1")] + times[(1, "p2")]
    ok = (ERROR_WINDOW["p1"][0] <= err1 <= ERROR_WINDOW["p1"][1]
          and K_WINDOW_P1[0] <= k1 <= K_WINDOW_P1[1]
          and ERROR_WINDOW["p2"][0] <= err2 <= ERROR_WINDOW["p2"][1]
          and elapsed < 120.0)
    _ok("criterion 6 (discrepancy rates)", ok,
        f"p1 err {err1:+.3f}, p1 K {k1:+.3f}, p2 err {err2:+.3f}, {elapsed:.0f}s")


def test_criterion_7_balancing_rates(grid_reports):
    reports, _ = grid_reports
    err1, _ = _slopes(reports[(2, "p1")])
    err2, _ = _slopes(reports[(2, "p2")])
    budget_ok = all(r.stop_index <= r.budgets[-1]
                    for pid in ("p1", "p2") for r in reports[(2, pid)])
    ok = (ERROR_WINDOW["p1"][0] <= err1 <= ERROR_WINDOW["p1"][1]
          and ERROR_WINDOW["p2"][0] <= err2 <= ERROR_WINDOW["p2"][1]
          and budget_ok)
    _ok("criterion 7 (balancing rates, K <= K_n)", ok,
        f"p1 err {err1:+.3f}, p2 err {err2:+.3f}")


def test_problem1_table_shape(grid_reports):
    # alongside the slope windows: errors fall and stopping indices grow
    # monotonically down the discrepancy grid
    reports, _ = grid_reports
    errs = [r.rel_error for r in reports[(1, "p1")]]
    stops = [r.stop_index for r in reports[(1, "p1")]]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(b >= a for a, b in zip(stops, stops[1:]))


def test_grid_matches_pinned_table(grid_reports):
    # a flipped stop index or a changed level path on any of the 40 runs
    # fails here; rel_error may move only by rounding
    reports, _ = grid_reports
    pinned = json.loads(GRID_PINNED.read_text())
    seen = set()
    for (algorithm, pid), sweep in reports.items():
        for e, rep in zip(range(4, 14), sweep):
            key = f"a{algorithm}/{pid}/e{e}"
            want = pinned[key]
            seen.add(key)
            assert list(rep.levels) == want["levels"], key
            assert list(rep.budgets) == want["budgets"], key
            assert rep.stop_index == want["stop_index"], key
            assert rep.info_count == want["info_count"], key
            assert rep.rel_error == pytest.approx(want["rel_error"], rel=1e-9), key
    assert seen == set(pinned)


def test_grid_digests_match_pinned_bits():
    # every residual norm, error and solution of the 40 runs, bit for bit;
    # rewrite the file from the script only for a change meant to move bits.
    # The residual norms go through BLAS's dot, whose rounding may differ
    # on another CPU.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for args, pinned in GRID_DIGESTS.items():
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "grid_digest.py"), "--seed", "0", *args],
            env=env, check=True, capture_output=True, text=True, timeout=120).stdout
        assert out.splitlines() == pinned.read_text().splitlines(), args


# ---------------------------------------------------------------------------
# criterion 8: a-priori bounds hold on every run
# ---------------------------------------------------------------------------

def test_criterion_8_theorem_bounds(grid_reports):
    reports, _ = grid_reports
    ok = True
    for pid in ("p1", "p2"):
        for rep in reports[(1, pid)]:
            d = rep.diagnostics(GRID_MU[pid])
            ok &= rep.abs_error <= d["error_bound_alg1"]
            ok &= rep.stop_index < d["k_bound"]
            if len(rep.levels) > 1:
                ok &= rep.final_level < d["n_bound"]
                ok &= rep.info_count < d["info_bound"]
        for rep in reports[(2, pid)]:
            ok &= rep.abs_error <= rep.diagnostics(GRID_MU[pid])["error_bound_alg2"]
    _ok("criterion 8 (error/stop-index/cost bounds on all runs)", ok)


# ---------------------------------------------------------------------------
# criterion 9: byte-identical CSV reproduction
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    # two executions of `semicross run`, each in a fresh interpreter
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    ok = True
    for pid in ("p1", "p2"):
        paths = []
        for tag in ("a", "b"):
            path = tmp_path / f"{pid}_{tag}.csv"
            subprocess.run(
                [sys.executable, "-m", "semicross.cli", "run", "--problem", pid,
                 "--algorithm", "1", "--nu", "1.5", "--tau", repr(TAU_REF),
                 "--delta-max", repr(GRID_DELTAS[0]),
                 "--delta-min", repr(GRID_DELTAS[-1]),
                 "--mu-diagnostic", repr(GRID_MU[pid]), "--out", str(path)],
                env=env, check=True, timeout=120)
            paths.append(path)
        ok &= paths[0].read_bytes() == paths[1].read_bytes()
        rows = read_csv(paths[0])
        ok &= [r["delta"] for r in rows] == list(GRID_DELTAS)
        ok &= [r["seed"] for r in rows] == list(range(len(GRID_DELTAS)))
    _ok("criterion 9 (byte-identical CSV across executions)", ok)


# ---------------------------------------------------------------------------
# criterion 10: information accounting
# ---------------------------------------------------------------------------

def test_criterion_10_information_accounting(grid_reports):
    reports, _ = grid_reports
    ok = True
    refinement_counts = set()
    for pid in ("p1", "p2"):
        for rep in reports[(1, pid)]:
            ok &= rep.info_count == gamma_count(rep.final_level)
            refinement_counts.add(len(rep.levels) - 1)
    # the equality must hold across genuinely different refinement paths
    ok &= len(refinement_counts) >= 2
    _ok("criterion 10 (entry evaluations == 2^{2n}(n+1))", ok,
        f"refinement step counts seen: {sorted(refinement_counts)}")
