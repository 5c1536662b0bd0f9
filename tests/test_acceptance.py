"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines;
each test also fails normally under plain pytest if its criterion is not met.
Everything here runs at desk scale (dim <= 16, n_traj <= 1e6) with fixed
seeds, so a failure is reproducible, never a flake to retry.
"""

import numpy as np

from noisytime import (
    DensityMatrix,
    HermitianOperator,
    averaged_trajectory,
    build_generator,
    compare_to_analytic,
    correlated_model,
    dephasing_model,
    eigendecompose,
    moment_report,
    run_ensemble,
    verify,
)
from noisytime.cli import main
from noisytime.generator import Superoperator


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def choi_min_eigenvalue(generator, t):
    """Lowest eigenvalue of the dense Choi matrix sum_ij |i><j| (x) map(|i><j|).

    The time-t map multiplies entry (k, l) by exp(r_kl t); it is applied to
    every matrix unit |i><j| and the images are placed blockwise.
    """
    d = generator.dim
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[i, j] = |i><j|
    images = generator.factors(t) * units
    return float(np.linalg.eigvalsh(images.transpose(0, 2, 1, 3).reshape(d * d, d * d))[0])


def qubit_system():
    hamiltonian = HermitianOperator(np.diag([0.0, 1.0]))
    return eigendecompose(hamiltonian), DensityMatrix.pure([1.0, 1.0])


def four_level_system():
    hamiltonian = HermitianOperator(np.diag([0.0, 0.37, 1.1, 2.03]))
    return eigendecompose(hamiltonian), DensityMatrix.pure(np.ones(4))


def test_criterion_1_resummation_identity():
    """Ensemble mean matches the analytic averaged state (z-test)."""
    model = correlated_model(0.8, 1.0)
    grid = np.linspace(0.0, 2.0, 10)
    details = []
    ok = True
    for label, (dec, rho0) in (
        ("qubit", qubit_system()),
        ("4-level", four_level_system()),
    ):
        ensemble = run_ensemble(dec, model, rho0, grid, n_traj=20000, seed=20240817)
        analytic = averaged_trajectory(dec, model, rho0, grid)
        result = compare_to_analytic(ensemble, analytic)
        ok &= result.passed is True
        details.append(
            f"{label} max z {result.max_z:.2f}, tail {result.frac_above_tail:.3f}"
        )
    assert report(1, ok, "resummation identity; " + "; ".join(details))


def test_criterion_2_phase_destroying_vs_global_form():
    """RK4 of the dephasing generator against the closed-form propagator."""
    ok, detail = verify._check_generator_vs_analytic_dephasing()
    assert report(2, ok, f"dephasing generator vs closed form (bound 1e-8): {detail}")


def test_criterion_3_correlated_generator_vs_analytic():
    """Correlated-kernel master equation against the elementwise solution."""
    ok, detail = verify._check_generator_vs_analytic_correlated()
    assert report(3, ok, f"correlated generator vs analytic (bound 1e-8): {detail}")


def test_criterion_4_short_range_limit():
    """As the correlation scale vanishes the two generators coincide."""
    ok, detail = verify._check_tau_zero_reduction()
    assert report(4, ok, f"short-range limit (tau=0 bitwise, bound 1e-6): {detail}")


def test_criterion_5_complete_positivity():
    """Choi matrices stay PSD for built-in generators; violator is flagged."""
    spectra = [0.0, 0.37, 1.1, 2.03, 2.5, 3.01, 3.9, 4.42]
    worst = np.inf
    for dim in range(2, 9):
        dec = eigendecompose(HermitianOperator(np.diag(spectra[:dim])))
        for model in (dephasing_model(0.7), correlated_model(0.7, 1.2)):
            gen = build_generator(dec, model)
            for t in (0.1, 1.0, 10.0):
                worst = min(worst, choi_min_eigenvalue(gen, t))
    dec2, _ = qubit_system()
    # The rates -i dh - table / 2 of the table [[0, -1], [-1, 0]], which
    # direct_damping_model refuses for not being completely positive.
    gaps = np.subtract.outer(dec2.levels, dec2.levels)
    violator = Superoperator(-1j * gaps - 0.5 * np.array([[0, -1], [-1, 0]]))
    violation = choi_min_eigenvalue(violator, 1.0)
    ok = worst >= -1e-10 and violation < -1e-6
    assert report(
        5, ok, f"min Choi eigenvalue {worst:.2e} >= -1e-10; violator at {violation:.2e}"
    )


def test_criterion_6_moment_identities():
    """Empirical moments of the phase difference match the gaussian values.

    10^6 samples (the first 50000 are the same draw as at n_traj 50000) make
    3 se tight enough that a 1% variance error reads z of about 6."""
    model = correlated_model(0.8, 1.0)
    ok = True
    details = []
    for theta, theta_prime, seed in ((0.3, 1.7, 1001), (-1.0, 0.5, 1002)):
        rows = moment_report(
            model, t=1.0, theta=theta, theta_prime=theta_prime,
            n_traj=10**6, seed=seed, max_order=4,
        )
        worst = max(
            abs(r.empirical - r.predicted) / r.stderr for r in rows if r.stderr > 0
        )
        ok &= worst <= 3.0
        details.append(f"pair ({theta},{theta_prime}) worst z {worst:.2f}")
    assert report(6, ok, "moments beta_2..beta_4 within 3 se; " + "; ".join(details))


def test_criterion_7_energy_conservation_vs_dissipation():
    """Brownian modes conserve energy; the direct table damps it as derived."""
    ok, detail = verify._check_energy_modes()
    assert report(7, ok, f"energy conservation vs dissipation (bounds 1e-10): {detail}")


def test_criterion_8_markovianity_boundary():
    """Semigroup law holds for constant profiles and breaks across the step."""
    ok, detail = verify._check_markovianity_boundary()
    assert report(8, ok, f"semigroup defect at t=s=0.8 (< 1e-12, < 1e-12, > 1e-3): {detail}")


def test_criterion_9_sampler_determinism(scenario_yaml, tmp_path, capsys):
    """Identical bytes from 1-worker and 8-worker sampling runs."""
    config = scenario_yaml(
        "global_dephasing", **{"grid.n_steps": 6, "montecarlo.n_traj": 3000}
    )
    outs = {}
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        code = main(
            ["sample", "--config", str(config), "--out", str(out), "--threads", workers]
        )
        assert code == 0
        assert capsys.readouterr().out.count("wrote") == 3
        outs[workers] = {
            name: (out / name).read_bytes()
            for name in ("mc_mean.csv", "mc_stderr.csv", "comparison.json")
        }
    ok = outs["1"] == outs["8"]
    with capsys.disabled():
        assert report(9, ok, "sample outputs byte-identical across 1 and 8 workers")
