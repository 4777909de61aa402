"""Security thresholds in the (transmissivity, excess noise) plane.

For each attack class, the threshold is the excess noise N at which the key
rate crosses zero.  Correlated separable ancillas (g = g' = 1 - omega) beat
the collective attack everywhere, and at high transmissivity they push the
two-way threshold below the one-way baseline; the EPR classes never produce
a zero crossing here (their rate rebounds with noise), so those points are
reported as undefined rather than silently dropped.
"""

import numpy as np

from twowayqkd import threshold_curves

GRID = list(np.round(np.arange(0.64, 0.99, 0.02), 10))

curves = {c.attack_class: c for c in threshold_curves(
    ("epr+", "sep-sym+", "sep-anti+", "sep-sym-", "collective"), GRID, with_oneway=True)}

labels = list(curves)
print("tolerable excess noise N* (SNU); '-' = no zero crossing found")
print(f"{'T':>6} " + " ".join(f"{l:>10}" for l in labels))
for i, T in enumerate(GRID):
    cells = []
    for label in labels:
        n_star = curves[label].N_star[i]
        cells.append(f"{n_star:>10.4f}" if np.isfinite(n_star) else f"{'-':>10}")
    print(f"{T:>6.2f} " + " ".join(cells))

# locate the crossing between the sep-sym- corner class and the one-way baseline
diff = curves["sep-sym-"].N_star - curves["oneway"].N_star
sign_change = np.flatnonzero((diff[:-1] > 0) & (diff[1:] <= 0))
if sign_change.size:
    i = sign_change[0]
    print(f"\nthe sep-sym- corner class drops below the one-way baseline between "
          f"T = {GRID[i]} and T = {GRID[i + 1]}")
