"""Grid scan for the rate-minimizing two-mode attack.

Locates the grid minimizer of the key rate over Eve's physical correlation
region.  At fixed g + g' the rate rises with |g - g'|, so the scan rates
only the node nearest the diagonal on each antidiagonal of the grid.  The
minimizer has symmetric, separable, anticorrelated correlations
(g = g' < 0), but it is not the corner (1 - omega, 1 - omega) of that
class: one symplectic eigenvalue equals 1 at the corner, where the entropy h
has a log-singular slope, so stepping inward along the diagonal lowers the
rate.  Deep inside the insecure region the minimizer moves far from the
corner; even at the threshold of the corner class the scan finds a strictly
negative rate just inside it.
"""

from twowayqkd import AttackParams, keyrate_asymptotic, optimal_attack_scan, threshold_curves

OMEGA, STEP = 2.0, 0.02

for T in (0.95, 0.8, 0.65, 0.5):
    res = optimal_attack_scan(T, OMEGA, STEP)
    r_coll = keyrate_asymptotic(T, AttackParams(OMEGA, 0.0, 0.0))
    corner = keyrate_asymptotic(T, AttackParams(OMEGA, 1.0 - OMEGA, 1.0 - OMEGA))
    print(f"T={T:4}: minimizer (g, g') = ({res.best_g:+.2f}, {res.best_g_prime:+.2f})  "
          f"R_min={res.R_min:+.4f}  R_corner={corner:+.4f}  R_collective={r_coll:+.4f}")

# at the sep-sym- threshold the corner rate is zero up to the root tolerance,
# yet a point just inside the corner already gives a negative rate
T = 0.8
w_star = float(threshold_curves(["sep-sym-"], [T])[0].omega_star[0])
res = optimal_attack_scan(T, w_star, STEP)
corner = keyrate_asymptotic(T, AttackParams(w_star, 1.0 - w_star, 1.0 - w_star))
print(f"\nat the sep-sym- threshold (T={T}, omega={w_star:.4f}):")
print(f"  minimizer ({res.best_g:+.3f}, {res.best_g_prime:+.3f}), R_min={res.R_min:+.2e}")
print(f"  corner    ({1 - w_star:+.3f}, {1 - w_star:+.3f}), R_corner={corner:+.2e}")
