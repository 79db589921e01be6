"""End-to-end acceptance suite.

Eleven numbered criteria, one visible PASS/FAIL line each, written straight
to the terminal so the verdicts survive pytest's capture. Simulation runs
are cached at module scope and shared wherever criteria overlap, so the
whole suite stays within a few minutes; it is still by far the slowest test
module (full 1e5-slot horizons where a criterion pins the horizon).
"""

import contextlib
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from wptsim.config import load_preset
from wptsim.harness import DRIFT_SLACK, apply_sweep_value, resolve_params, run
from oracles import jacobi_spectrum, max_eigpair, quad_form, random_hermitian

SEEDS = (0, 1, 2)
_CACHE = {}
_CAPTURE_MANAGER = None


@pytest.fixture(scope="session", autouse=True)
def _terminal_access(request):
    # pytest's fd-level capture swallows even sys.__stdout__; the capture
    # manager can suspend it so the verdict lines reach the real terminal
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


def _cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _report(num, passed, detail):
    line = f"criterion {num:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    suspend = (
        _CAPTURE_MANAGER.global_and_fixture_disabled()
        if _CAPTURE_MANAGER is not None
        else contextlib.nullcontext()
    )
    with suspend:
        print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def _se(values):
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=1) / np.sqrt(len(values)))


# ---------------------------------------------------------------------------
# shared simulation runs


def _timed_run(cfg, params, kind, **kw):
    t0 = time.monotonic()
    summary = run(cfg, params, kind, **kw)
    return summary, time.monotonic() - t0


def _fig5_runs():
    """Single-receiver delivery scenario: optimal and queue-driven, 3 seeds."""
    exp = load_preset("fig5")
    opt, near = [], []
    for seed in SEEDS:
        cfg = replace(exp.scenario, seed=seed)
        opt.append(_timed_run(cfg, exp.params, "optimal-energy", warmup_samples=200_000))
        near.append(_timed_run(cfg, exp.params, "mdpp-energy"))
    return {"target": exp.params.p_targets[0], "opt": opt, "near": near}


def _fig7_runs():
    """Two-receiver budget scenario: optimal reference plus the budget policy
    at the default control parameter and at twice the default, 3 seeds."""
    exp = load_preset("fig7-baseline")
    params_v = resolve_params(exp.scenario, exp.params, "mdpp-power")
    params_2v = replace(params_v, v=2.0 * params_v.v)
    out = {"p_avg": exp.params.p_avg, "v": params_v.v, "opt": [], "near_v": [], "near_2v": []}
    for seed in SEEDS:
        cfg = replace(exp.scenario, seed=seed)
        out["opt"].append(run(cfg, exp.params, "optimal-power"))
        out["near_v"].append(run(cfg, params_v, "mdpp-power"))
        out["near_2v"].append(run(cfg, params_2v, "mdpp-power"))
    return out


def _fig4_delivery_run():
    """Two-receiver delivery run at the full horizon, one seed."""
    exp = load_preset("fig4")
    return {"targets": exp.params.p_targets, "summary": run(exp.scenario, exp.params, "mdpp-energy")}


def _fairness_base_runs():
    """Fairness policies on the baseline two-receiver topology, full horizon."""
    exp = load_preset("fig8a")
    return {
        "p_avg": exp.params.p_avg,
        "mmf": run(exp.scenario, exp.params, "mmf"),
        "qpf": run(exp.scenario, exp.params, "qpf"),
    }


def _fairness_grid():
    """Distance-ratio grid. The max-min rows use the full horizon (their
    equalization residual is systematic and shrinks with the horizon); the
    remaining rows average three seeds at a shorter horizon."""
    exp = load_preset("fig8a")
    grid = {"p_min": exp.params.p_min, "d_r": (1.0, 1.25, 1.5, 2.0), "mmf": {}, "qpf": {}, "nofair": {}}
    short = replace(exp.scenario, slots=40_000)
    for dr in grid["d_r"]:
        cfg_full, params = apply_sweep_value(exp.scenario, exp.params, "d_r", dr)
        cfg_short, _ = apply_sweep_value(short, exp.params, "d_r", dr)
        grid["mmf"][dr] = [run(cfg_full, params, "mmf")]
        grid["qpf"][dr] = [run(replace(cfg_short, seed=s), params, "qpf") for s in SEEDS]
        if dr in (1.0, 1.5):
            grid["nofair"][dr] = [run(replace(cfg_short, seed=s), params, "mdpp-power") for s in SEEDS]
    return grid


def _n_sweep_runs():
    """Delivery policy vs transmit array size, 3 seeds per point."""
    exp = load_preset("fig4")
    cfg = replace(exp.scenario, slots=40_000)
    return {
        n: [run(replace(cfg, n_tx=n, seed=s), exp.params, "mdpp-energy") for s in SEEDS]
        for n in exp.sweep.values
    }


def _all_queue_driven_runs():
    """Every queue-driven summary produced anywhere in this suite."""
    runs = []
    fig5 = _cached("fig5", _fig5_runs)
    runs += [s for s, _ in fig5["near"]]
    fig7 = _cached("fig7", _fig7_runs)
    runs += fig7["near_v"] + fig7["near_2v"]
    runs.append(_cached("fig4_delivery", _fig4_delivery_run)["summary"])
    base = _cached("fairness_base", _fairness_base_runs)
    runs += [base["mmf"], base["qpf"]]
    grid = _cached("fairness_grid", _fairness_grid)
    for policy in ("mmf", "qpf", "nofair"):
        for rs in grid[policy].values():
            runs += rs
    for rs in _cached("n_sweep", _n_sweep_runs).values():
        runs += rs
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_quadratic_form_spectral_bound():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst_excess = -np.inf
    worst_eq = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        w = random_hermitian(rng, dim)
        lam, vec = max_eigpair(w)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm_sq = float(np.vdot(v, v).real)
        worst_excess = max(worst_excess, quad_form(w, v) - lam * norm_sq)
        aligned = np.sqrt(norm_sq) * vec
        worst_eq = max(worst_eq, abs(quad_form(w, aligned) - lam * norm_sq))
    elapsed = time.monotonic() - t0
    passed = worst_excess <= 1e-9 and worst_eq <= 1e-8 and elapsed < 10.0
    _report(
        1,
        passed,
        f"quad form bound: worst excess {worst_excess:.2e} (tol 1e-9), "
        f"equality dev {worst_eq:.2e} (tol 1e-8), {elapsed:.1f}s (limit 10s), 1000 matrices",
    )


def test_criterion_02_eigenpair_matches_bruteforce_oracle():
    rng = np.random.default_rng(1002)
    worst_val = 0.0
    worst_res = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 17))
        w = random_hermitian(rng, dim)
        lam, vec = max_eigpair(w)
        oracle_top = jacobi_spectrum(w)[-1]
        worst_val = max(worst_val, abs(lam - oracle_top))
        worst_res = max(worst_res, float(np.linalg.norm(w @ vec - lam * vec)))
    passed = worst_val <= 1e-8 and worst_res <= 1e-8
    _report(
        2,
        passed,
        f"eigenpair vs hand-written Jacobi oracle: value dev {worst_val:.2e}, "
        f"residual {worst_res:.2e} (tol 1e-8), 500 matrices",
    )


def test_criterion_03_optimal_energy_hits_delivery_target():
    fig5 = _cached("fig5", _fig5_runs)
    target = fig5["target"]
    recv = np.mean([s.avg_received_power[0] for s, _ in fig5["opt"]])
    rel = abs(recv - target) / target
    slowest = max(dt for _, dt in fig5["opt"])
    passed = rel <= 0.03 and slowest < 60.0
    _report(
        3,
        passed,
        f"delivered {recv*1e3:.3f} mW vs target {target*1e3:.1f} mW: {100*rel:.2f}% "
        f"(tol 3%), slowest run {slowest:.1f}s (limit 60s), 3 seeds at 1e5 slots",
    )


def test_criterion_04_optimal_power_budget_equality():
    fig7 = _cached("fig7", _fig7_runs)
    p_avg = fig7["p_avg"]
    devs = [abs(s.avg_transmit_power - p_avg) / p_avg for s in fig7["opt"]]
    passed = max(devs) <= 0.03
    _report(
        4,
        passed,
        f"avg transmit vs {p_avg:.1f} W budget: per-seed dev "
        f"{', '.join(f'{100*d:.2f}%' for d in devs)} (tol 3%), 1e5 slots",
    )


def test_criterion_05_constraint_satisfaction_and_queue_stability():
    fig5 = _cached("fig5", _fig5_runs)
    fig4 = _cached("fig4_delivery", _fig4_delivery_run)
    fig7 = _cached("fig7", _fig7_runs)
    base = _cached("fairness_base", _fairness_base_runs)

    deficits = []
    for s, _ in fig5["near"]:
        deficits.append((fig5["target"] - s.avg_received_power[0]) / fig5["target"])
    for target, got in zip(fig4["targets"], fig4["summary"].avg_received_power):
        deficits.append((target - got) / target)
    worst_deficit = max(deficits)

    budget_runs = fig7["near_v"] + [base["mmf"], base["qpf"]]
    worst_tx = max(s.avg_transmit_power / s.config["params"]["p_avg"] for s in budget_runs)

    stability_runs = [s for s, _ in fig5["near"]] + [fig4["summary"]] + budget_runs
    all_stable = all(s.queues_stable for s in stability_runs)

    passed = worst_deficit <= 0.02 and worst_tx <= 1.02 and all_stable
    _report(
        5,
        passed,
        f"worst delivery deficit {100*worst_deficit:.2f}% (tol 2%), worst transmit/budget "
        f"{worst_tx:.4f} (tol 1.02), queue rates within 1e-3 x power scale on all "
        f"{len(stability_runs)} runs: {all_stable}, 1e5 slots",
    )


def test_criterion_06_near_optimal_gaps_within_five_percent():
    fig5 = _cached("fig5", _fig5_runs)
    fig7 = _cached("fig7", _fig7_runs)
    opt_tx = np.mean([s.avg_transmit_power for s, _ in fig5["opt"]])
    near_tx = np.mean([s.avg_transmit_power for s, _ in fig5["near"]])
    energy_gap = (near_tx - opt_tx) / opt_tx
    opt_recv = np.mean([s.total_received for s in fig7["opt"]])
    near_recv = np.mean([s.total_received for s in fig7["near_v"]])
    power_gap = (opt_recv - near_recv) / opt_recv
    passed = energy_gap <= 0.05 and power_gap <= 0.05
    _report(
        6,
        passed,
        f"transmit-power gap {100*energy_gap:.2f}% above optimal, received-power gap "
        f"{100*power_gap:.2f}% below optimal (tol 5% each), default v, 3 seeds, 1e5 slots",
    )


def test_criterion_07_gap_shrinks_with_v_and_respects_bound():
    fig7 = _cached("fig7", _fig7_runs)
    opt = np.array([s.total_received for s in fig7["opt"]])
    gaps_v = opt - np.array([s.total_received for s in fig7["near_v"]])
    gaps_2v = opt - np.array([s.total_received for s in fig7["near_2v"]])
    se_diff = float(np.sqrt(_se(gaps_v) ** 2 + _se(gaps_2v) ** 2))
    p_peak = fig7["near_v"][0].config["params"]["p_peak"]
    b = 0.5 * p_peak**2
    bound_v = b / fig7["v"] + 3 * _se(gaps_v)
    bound_2v = b / (2 * fig7["v"]) + 3 * _se(gaps_2v)
    monotone = gaps_2v.mean() <= gaps_v.mean() + 3 * se_diff
    bounded = gaps_v.mean() <= bound_v and gaps_2v.mean() <= bound_2v
    passed = monotone and bounded
    _report(
        7,
        passed,
        f"gap(v)={gaps_v.mean():.2e} W (bound {bound_v:.2e}), gap(2v)={gaps_2v.mean():.2e} W "
        f"(bound {bound_2v:.2e}), gap(2v) <= gap(v)+3se: {monotone}",
    )


def test_criterion_08_drift_bound_holds_on_every_run():
    runs = _all_queue_driven_runs()
    worst = max(s.drift_slack_max for s in runs)
    passed = worst <= DRIFT_SLACK and len(runs) >= 40
    _report(
        8,
        passed,
        f"per-slot quadratic drift inequality: worst slack {worst:.2e} over "
        f"{len(runs)} queue-driven runs (tol 1e-9)",
    )


def test_criterion_09_fairness_trends():
    grid = _cached("fairness_grid", _fairness_grid)

    def mean_powers(runs):
        return np.mean([s.avg_received_power for s in runs], axis=0)

    def dev(powers):
        return abs(powers[0] - powers[1]) / powers.max()

    eq1 = {p: dev(mean_powers(grid[p][1.0])) for p in ("mmf", "qpf", "nofair")}
    mmf_devs = {dr: dev(mean_powers(grid["mmf"][dr])) for dr in grid["d_r"]}
    nf = mean_powers(grid["nofair"][1.5])
    nofair_ratio = nf[1] / nf[0]
    far = {dr: [s.avg_received_power[1] for s in grid["qpf"][dr]] for dr in grid["d_r"]}
    means = [np.mean(far[dr]) for dr in grid["d_r"]]
    ses = [_se(far[dr]) for dr in grid["d_r"]]
    qpf_monotone = all(
        means[i + 1] <= means[i] + np.hypot(ses[i], ses[i + 1]) for i in range(len(means) - 1)
    )
    floor = 0.98 * grid["p_min"]
    qpf_floor = min(means) >= floor

    passed = (
        max(eq1.values()) <= 0.02
        and max(mmf_devs.values()) <= 0.03
        and nofair_ratio < 0.10
        and qpf_monotone
        and qpf_floor
    )
    _report(
        9,
        passed,
        f"equal split at d_r=1 {100*max(eq1.values()):.2f}% (tol 2%); max-min spread over grid "
        f"{100*max(mmf_devs.values()):.2f}% (tol 3%); no-fairness far/near {100*nofair_ratio:.1f}% "
        f"(gate 10%); qpf far monotone within 1se: {qpf_monotone}, floor "
        f"{1e3*min(means):.2f} mW >= {1e3*floor:.2f} mW: {qpf_floor}",
    )


def test_criterion_10_transmit_power_non_increasing_in_array_size():
    sweeps = _cached("n_sweep", _n_sweep_runs)
    ns = sorted(sweeps)
    means = [np.mean([s.avg_transmit_power for s in sweeps[n]]) for n in ns]
    ses = [_se([s.avg_transmit_power for s in sweeps[n]]) for n in ns]
    monotone = all(
        means[i + 1] <= means[i] + np.hypot(ses[i], ses[i + 1]) for i in range(len(ns) - 1)
    )
    _report(
        10,
        monotone,
        "avg transmit W by n_tx "
        + ", ".join(f"{n}: {m:.3f}" for n, m in zip(ns, means))
        + f" non-increasing within 1se over {len(SEEDS)} seeds",
    )


def test_criterion_11_bit_identical_determinism():
    exp = load_preset("fig7-baseline")
    cfg = replace(exp.scenario, slots=2000)
    a = run(cfg, exp.params, "mdpp-power")
    b = run(cfg, exp.params, "mdpp-power")
    exp5 = load_preset("fig5")
    cfg5 = replace(exp5.scenario, slots=2000)
    c = run(cfg5, exp5.params, "optimal-energy", warmup_samples=2000)
    d = run(cfg5, exp5.params, "optimal-energy", warmup_samples=2000)
    passed = a == b and c == d
    _report(
        11,
        passed,
        f"repeat runs reproduce summaries bit-identically: queue-driven {a == b}, "
        f"threshold {c == d}",
    )
