"""The one-shot kernel: exact values and strategies of zero-sum matrix games.

Every stochastic-game computation in this library bottoms out in solving
small matrix games, so the solver certifies its own output: the returned
certificate gap bounds how far either strategy can be from optimal.
"""
import numpy as np

from stochgame import solve_batch, solve_matrix_game

examples = {
    "matching pennies": [[1.0, -1.0], [-1.0, 1.0]],
    "asymmetric 2x2": [[3.0, 1.0], [1.0, 2.0]],
    "dominant row": [[4.0, 2.0, 3.0], [1.0, 0.5, 2.5]],
    "single outcome": [[0.25]],
}

for name, matrix in examples.items():
    sol = solve_matrix_game(matrix)
    print(f"{name}: value {sol.value:.6f}")
    print(f"  row mix {np.round(sol.row_strategy, 6)}, col mix {np.round(sol.col_strategy, 6)}")
    print(f"  certificate gap {sol.certificate_gap:.2e}")

# the value is 1-Lipschitz in the matrix entries; check it on random pairs
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(500):
    A = rng.uniform(-2, 2, (3, 3))
    B = A + rng.uniform(-0.1, 0.1, (3, 3))
    value_a, value_b = solve_batch(np.stack([A, B]))[0]
    worst = max(worst, abs(value_a - value_b) - np.abs(A - B).max())
print(f"\nLipschitz slack over 500 perturbed pairs (should be <= ~0): {worst:.2e}")
