"""Global dephasing of a qubit, computed three ways.

A qubit with unit level splitting evolves for a random duration whose
spread grows linearly in time.  In the energy basis the populations
freeze while the off-diagonal element decays as exp(-gamma t / 2) on
top of its usual rotation.  The same trajectory is computed here by the
elementwise closed form, by integrating the phase-destroying master
equation, and by averaging explicit random unitaries, then printed side
by side.

The bundled scenario file gives the same numbers through the CLI:

    noisytime evolve    --config src/noisytime/scenarios/global_dephasing.yaml --out out/demo1
    noisytime integrate --config src/noisytime/scenarios/global_dephasing.yaml --out out/demo1
    noisytime sample    --config src/noisytime/scenarios/global_dephasing.yaml --out out/demo1
"""

import numpy as np

from noisytime import (
    DensityMatrix,
    HermitianOperator,
    averaged_trajectory,
    build_generator,
    compare_to_analytic,
    dephasing_model,
    eigendecompose,
    integrate,
    run_ensemble,
)

GAMMA = 0.5

decomposition = eigendecompose(HermitianOperator(np.diag([0.0, 1.0])))
rho0 = DensityMatrix.pure([1.0, 1.0])  # |+>, maximal coherence
grid = np.linspace(0.0, 5.0, 11)
model = dephasing_model(GAMMA)

# Route 1: elementwise closed form in the energy basis.
analytic = averaged_trajectory(decomposition, model, rho0, grid)

# Route 2: RK4 on the master equation built from the same model.
ode = integrate(build_generator(decomposition, model), rho0, grid,
                decomposition=decomposition)

# Route 3: 20000 unitaries at randomly drawn evolution times.
ensemble = run_ensemble(decomposition, model, rho0, grid, n_traj=20000, seed=4)

print("coherence |rho_01(t)| for the plus state under gamma =", GAMMA)
print(f"{'t':>5} {'closed form':>12} {'analytic':>12} {'master eq':>12} {'monte carlo':>12}")
for i, t in enumerate(grid):
    exact = 0.5 * np.exp(-GAMMA * t / 2)
    print(f"{t:5.1f} {exact:12.6f}"
          f" {abs(analytic.states[i][0, 1]):12.6f}"
          f" {abs(ode.states[i][0, 1]):12.6f}"
          f" {abs(ensemble.mean[i][0, 1]):12.6f}")

report = compare_to_analytic(ensemble, analytic)
print()
print(f"sampler vs closed form over the whole grid: max z = {report.max_z:.2f} "
      f"({ensemble.n_traj} trajectories), verdict {'pass' if report.passed else 'fail'}")
