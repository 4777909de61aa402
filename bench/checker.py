"""Independent checker for the outputs of the `twowayqkd` CLI.

Nothing here imports `twowayqkd`: every reference value comes from the closed
forms below, written from the formulas rather than from the package code.

- Two-way key rate (asymptotic, direct reconciliation):
      R = log2(2T(1+T) / (e(1-T) sqrt(sigma sigma'))) - h(nu1) - h(nu2) + h(nubar1)
  with nu1 = sqrt((w-g)(w-g')), nu2 = sqrt((w+g)(w+g')),
  nubar1 = sqrt((w+rg)(w+rg')), r = 2 sqrt(T)/(1+T),
  sigma = Delta + 2g(1-T)sqrt(T), sigma' likewise with g',
  Delta = 1 + T^2 + (1-T^2) w.
- Physicality of Eve's state [[wI, G], [G, wI]], G = diag(g, g'): its
  symplectic eigenvalues are sqrt((w-g)(w-g')) and sqrt((w+g)(w+g')), so
  |g|, |g'| < w and (w-+g)(w-+g') >= (1 - ATOL)^2.
- PPT separability: partial transposition flips the sign of g', so
  (w-g)(w+g') >= 1 and (w+g)(w-g') >= 1, with the same tolerance.
- One-way baseline (coherent states, heterodyne, collective attack):
      R1 = log2(2T / (e(1-T)(1+T+(1-T)w))) - h(w) + h(T+(1-T)w)
  The package computes it through finite-modulation matrices; the two agree
  within ONEWAY_GAP bits.

Each `check_*` function returns a list of failure messages; empty means the
output passed.
"""

import json
import math

import numpy as np

#: tolerance on symplectic eigenvalues (the package's bona fide tolerance)
ATOL = 1e-9

#: the package's doubling cap for threshold brackets
BRACKET_CAP = 2.0 ** 16

#: documented gap between the one-way closed form and the matrix path, in bits
ONEWAY_GAP = 2e-5

#: relative offset on each side of a threshold root at which the sign must differ
ROOT_SIDE = 1e-7

#: tolerance on rates and minimiser coordinates of scans
SCAN_TOL = 1e-9

#: tolerance of the EPR classes' large-omega tail form, in bits
EPR_LIMIT_TOL = 1e-4

TWO_WAY_CLASSES = ("collective", "epr+", "epr-", "sep-sym+", "sep-sym-", "sep-anti+", "sep-anti-")
EPR_CLASSES = ("epr+", "epr-")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def h(nu):
    """Entropy of one symplectic eigenvalue in bits, with 0 log 0 = 0."""
    nu = np.maximum(np.asarray(nu, dtype=float), 1.0)
    a = 0.5 * (nu + 1.0)
    b = 0.5 * (nu - 1.0)
    safe_b = np.where(b > 0.0, b, 1.0)
    return a * np.log2(a) - np.where(b > 0.0, b * np.log2(safe_b), 0.0)


def rate(T, omega, g, gp):
    """Two-way asymptotic key rate; arrays broadcast."""
    T = np.asarray(T, dtype=float)
    omega = np.asarray(omega, dtype=float)
    g = np.asarray(g, dtype=float)
    gp = np.asarray(gp, dtype=float)
    st = np.sqrt(T)
    r = 2.0 * st / (1.0 + T)
    delta = 1.0 + T * T + (1.0 - T * T) * omega
    sigma = delta + 2.0 * g * (1.0 - T) * st
    sigma_p = delta + 2.0 * gp * (1.0 - T) * st
    nu1 = np.sqrt(np.maximum((omega - g) * (omega - gp), 1.0))
    nu2 = np.sqrt(np.maximum((omega + g) * (omega + gp), 1.0))
    nubar1 = np.sqrt(np.maximum((omega + r * g) * (omega + r * gp), 1.0))
    lead = np.log2(2.0 * T * (1.0 + T) / (math.e * (1.0 - T) * np.sqrt(sigma * sigma_p)))
    return lead - h(nu1) - h(nu2) + h(nubar1)


def oneway_rate(T, omega):
    """One-way baseline key rate in the large-modulation limit."""
    T = np.asarray(T, dtype=float)
    omega = np.asarray(omega, dtype=float)
    lead = np.log2(2.0 * T / (math.e * (1.0 - T) * (1.0 + T + (1.0 - T) * omega)))
    return lead - h(omega) + h(T + (1.0 - T) * omega)


def class_attack(label, omega):
    """(g, g') of a named extremal attack class at thermal variance omega."""
    omega = np.asarray(omega, dtype=float)
    c = np.sqrt(omega * omega - 1.0)
    s = omega - 1.0
    table = {
        "collective": (0.0 * s, 0.0 * s),
        "epr+": (c, -c), "epr-": (-c, c),
        "sep-sym+": (s, s), "sep-sym-": (-s, -s),
        "sep-anti+": (s, -s), "sep-anti-": (-s, s),
    }
    return table[label]


def class_rate(T, label, omega):
    g, gp = class_attack(label, omega)
    return rate(T, omega, g, gp)


def physical(omega, g, gp):
    """Closed-form physicality of Eve's two-mode state."""
    floor = (1.0 - ATOL) ** 2
    return ((np.abs(g) < omega) & (np.abs(gp) < omega)
            & ((omega - g) * (omega - gp) >= floor) & ((omega + g) * (omega + gp) >= floor))


def ppt_separable(omega, g, gp):
    """Closed-form PPT test of Eve's two-mode state."""
    floor = (1.0 - ATOL) ** 2
    return ((omega - g) * (omega + gp) >= floor) & ((omega + g) * (omega - gp) >= floor)


def grid_nodes(omega, step):
    """Physical nodes (g, g') of the centered square grid, row-major (g slowest)."""
    kmax = int(np.floor(omega / step + 1e-9))
    vals = np.arange(-kmax, kmax + 1) * step
    G, GP = np.meshgrid(vals, vals, indexing="ij")
    mask = physical(omega, G, GP)
    return G[mask], GP[mask]


def t_grid(t_min, t_max, t_step):
    """The T grid the CLI builds from --t-min/--t-max/--t-step."""
    count = int(np.floor((t_max - t_min) / t_step + 1e-9)) + 1
    return [t_min + k * t_step for k in range(count)]


# ---------------------------------------------------------------------------
# threshold curves
# ---------------------------------------------------------------------------

def parse_threshold_csv(text):
    """{class: (T, omega_star, N_star, secure) arrays} from `threshold` CSV output."""
    lines = text.splitlines()
    if not lines or lines[0] != "attack,T,omega_star,N_star,secure":
        raise ValueError(f"unexpected threshold header {lines[:1]}")
    rows = {}
    for line in lines[1:]:
        label, T, w, N, secure = line.split(",")
        if secure not in ("true", "false"):
            raise ValueError(f"bad secure flag {secure!r}")
        rows.setdefault(label, []).append((float(T), float(w), float(N), secure == "true"))
    return {label: tuple(np.array(col) for col in zip(*pts)) for label, pts in rows.items()}


def _threshold_noise(curve):
    """Excess noise per point with insecure points at 0 (NaN stays NaN)."""
    _, _, N, secure = curve
    return np.where(secure, N, 0.0)


def check_threshold(text, classes, grid, with_oneway):
    """Check `threshold` output for the given class order and T grid."""
    try:
        curves = parse_threshold_csv(text)
    except ValueError as exc:
        return [f"unparseable threshold output: {exc}"]
    expected = list(classes) + (["oneway"] if with_oneway else [])
    order = list(dict.fromkeys(line.split(",", 1)[0] for line in text.splitlines()[1:]))
    if order != expected:
        return [f"curves {order} != requested {expected}"]
    grid = np.array(grid)
    errors = []
    for label in expected:
        T, w, N, secure = curves[label]
        if T.shape != grid.shape or not np.array_equal(T, grid):
            errors.append(f"{label}: T column differs from the requested grid")
            continue
        two_way = label != "oneway"
        at_vacuum = class_rate(T, label, 1.0) if two_way else oneway_rate(T, 1.0)
        insecure = ~secure
        bad = insecure & ~((w == 1.0) & (N == 0.0) & (at_vacuum <= 0.0))
        for i in np.flatnonzero(bad):
            errors.append(f"{label} T={T[i]}: flagged insecure but R(w=1)={at_vacuum[i]:.3e}, "
                          f"omega*={w[i]}, N*={N[i]}")
        finite = secure & np.isfinite(w)
        Tf, wf = T[finite], w[finite]
        n_expect = (1.0 - Tf) * (wf - 1.0) / Tf
        for i in np.flatnonzero(np.abs(N[finite] - n_expect) > 1e-12 * np.maximum(1.0, n_expect)):
            errors.append(f"{label} T={Tf[i]}: N*={N[finite][i]} != (1-T)(w*-1)/T={n_expect[i]}")
        if two_way:
            below = class_rate(Tf, label, wf * (1.0 - ROOT_SIDE))
            above = class_rate(Tf, label, wf * (1.0 + ROOT_SIDE))
            for i in np.flatnonzero(~((below > 0.0) & (above < 0.0))):
                errors.append(f"{label} T={Tf[i]}: no sign change across omega*={wf[i]} "
                              f"(R={below[i]:.3e} below, {above[i]:.3e} above)")
        else:
            gap = np.abs(oneway_rate(Tf, wf))
            for i in np.flatnonzero(~(gap <= ONEWAY_GAP)):
                errors.append(f"oneway T={Tf[i]}: closed-form R={gap[i]:.3e} at omega*={wf[i]}")
        undefined = secure & ~np.isfinite(w)
        if np.any(undefined) and label not in EPR_CLASSES:
            errors.append(f"{label}: no threshold at T={T[undefined].tolist()}")
        for i in np.flatnonzero(undefined & (label in EPR_CLASSES)):
            errors.extend(_check_no_crossing(label, T[i]))
    if "sep-sym-" in curves and "collective" in curves:
        errors.extend(_check_below("sep-sym-", curves, grid))
    if with_oneway and "collective" in curves:
        errors.extend(_check_below("oneway", curves, grid))
    if "epr+" in curves and "epr-" in curves:
        wp, wm = curves["epr+"][1], curves["epr-"][1]
        same = (np.isnan(wp) & np.isnan(wm)) | (np.abs(wp - wm) <= 1e-9 * np.abs(wp))
        if not (np.all(same) and np.array_equal(curves["epr+"][3], curves["epr-"][3])):
            errors.append("epr+ and epr- curves disagree")
    return errors


def epr_rate_tail(T, omega):
    """EPR-class rate for large omega, exact up to O(1/nubar1^2).

    For (g, g') = (+-c, -+c), c^2 = w^2 - 1: nu1 = nu2 = 1,
    nubar1^2 = w^2 (1-T)^2/(1+T)^2 + 4T/(1+T)^2 and
    sigma sigma' = (1-T)^4 w^2 + 2(1+T^2)(1-T^2) w + (1+T^2)^2 + 4T(1-T)^2,
    a sum of positive terms that stays accurate at any w.  With
    h(nu) -> log2(e nu/2) the rate tends to log2(T/(1-T)^2).
    """
    nubar1 = np.sqrt(omega * omega * ((1.0 - T) / (1.0 + T)) ** 2 + 4.0 * T / (1.0 + T) ** 2)
    ss = ((1.0 - T) ** 4 * omega * omega + 2.0 * (1.0 + T * T) * (1.0 - T * T) * omega
          + (1.0 + T * T) ** 2 + 4.0 * T * (1.0 - T) ** 2)
    return np.log2(T * (1.0 + T) * nubar1 / ((1.0 - T) * np.sqrt(ss)))


def _check_no_crossing(label, T):
    """An EPR point reported without a root: the rate never reaches 0.

    The rate stays positive on a log grid up to the bracket cap, the tail
    form matches it at the cap, and the tail tends to log2(T/(1-T)^2) > 0.
    """
    omegas = np.geomspace(1.0, BRACKET_CAP, 257)
    r = class_rate(T, label, omegas)
    errors = []
    if not np.all(r > 0.0):
        errors.append(f"{label} T={T}: rate reaches {r.min():.3e} at omega={omegas[r.argmin()]:.4g} "
                      "but no threshold was reported")
    limit = math.log2(T / (1.0 - T) ** 2)
    tail_at_cap, tail_far = epr_rate_tail(T, BRACKET_CAP), epr_rate_tail(T, 1e12)
    if not (limit > 0.0 and abs(tail_at_cap - r[-1]) <= EPR_LIMIT_TOL
            and abs(tail_far - limit) <= EPR_LIMIT_TOL):
        errors.append(f"{label} T={T}: R(2^16)={r[-1]:.6f}, tail {tail_at_cap:.6f} at 2^16 and "
                      f"{tail_far:.6f} at 1e12; limit log2(T/(1-T)^2)={limit:.6f}")
    return errors


def _check_below(label, curves, grid):
    mine = _threshold_noise(curves[label])
    coll = _threshold_noise(curves["collective"])
    bad = ~(mine <= coll + 1e-12)
    return [f"{label} T={grid[i]}: N*={mine[i]} exceeds collective N*={coll[i]}"
            for i in np.flatnonzero(bad)]


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

SUMMARY_KEYS = ("T", "omega", "best_g", "best_g_prime", "R_min", "grid_resolution")


class ScanReference:
    """The checker's own scan of one (T, omega, step): nodes, rates and minimum."""

    def __init__(self, T, omega, step):
        self.T, self.omega, self.step = T, omega, step
        self.g, self.gp = grid_nodes(omega, step)
        self.R = rate(T, omega, self.g, self.gp)
        best = np.lexsort((self.gp, self.g, self.R))[0]
        self.best = (float(self.g[best]), float(self.gp[best]))
        self.R_min = float(self.R[best])
        self.R_collective = float(class_rate(T, "collective", omega))
        self.R_sep_sym = float(class_rate(T, "sep-sym-", omega))


def _summary_from_csv(lines):
    if len(lines) < 2 or lines[0] != ",".join(SUMMARY_KEYS):
        raise ValueError(f"unexpected scan summary {lines[:2]}")
    return dict(zip(SUMMARY_KEYS, (float(x) for x in lines[1].split(","))))


def parse_scan(text, fmt):
    """(summary dict, grid rows as an (n, 3) array or None) from `scan` output."""
    if fmt == "json":
        payload = json.loads(text)
        summary = {k: float(payload[k]) for k in SUMMARY_KEYS}
        grid = payload.get("grid")
        if grid is not None:
            grid = np.array([(row["g"], row["g_prime"], row["R"]) for row in grid], dtype=float)
            grid = grid.reshape(-1, 3)
        return summary, grid
    blocks = text.split("\n\n")
    summary = _summary_from_csv(blocks[0].splitlines())
    if len(blocks) == 1:
        return summary, None
    lines = blocks[1].splitlines()
    if lines[0] != "g,g_prime,R":
        raise ValueError(f"unexpected grid header {lines[0]!r}")
    grid = np.array([line.split(",") for line in lines[1:]], dtype=float).reshape(-1, 3)
    return summary, grid


def _check_summary(summary, exit_code, ref):
    errors = []
    where = f"scan T={ref.T} w={ref.omega} step={ref.step}"
    if (summary["T"], summary["omega"], summary["grid_resolution"]) != (ref.T, ref.omega, ref.step):
        errors.append(f"{where}: summary echoes T={summary['T']}, omega={summary['omega']}, "
                      f"step={summary['grid_resolution']}")
    g, gp, r_min = summary["best_g"], summary["best_g_prime"], summary["R_min"]
    if not abs(r_min - ref.R_min) <= SCAN_TOL:
        errors.append(f"{where}: R_min={r_min} but the checker's minimum is {ref.R_min}")
    # R(g, g') = R(g', g): the mirror of the checker's argmin is an equally valid minimiser
    at_best = [abs(g - a) <= SCAN_TOL and abs(gp - b) <= SCAN_TOL
               for a, b in (ref.best, ref.best[::-1])]
    if not any(at_best):
        errors.append(f"{where}: minimiser ({g}, {gp}) but the checker's is {ref.best}")
    if not abs(g - gp) <= ref.step + 1e-12:
        errors.append(f"{where}: minimiser ({g}, {gp}) is not symmetric within one step")
    if not ppt_separable(ref.omega, g, gp):
        errors.append(f"{where}: minimiser ({g}, {gp}) is not PPT-separable")
    if not g + gp < 0.0:
        errors.append(f"{where}: minimiser ({g}, {gp}) has g + g' >= 0")
    if not r_min < ref.R_collective:
        errors.append(f"{where}: R_min={r_min} is not below collective {ref.R_collective}")
    if not r_min <= ref.R_sep_sym + 1e-12:
        errors.append(f"{where}: R_min={r_min} is above sep-sym- {ref.R_sep_sym}")
    expected_exit = 2 if r_min <= 0.0 else 0
    if exit_code != expected_exit:
        errors.append(f"{where}: exit code {exit_code} with R_min={r_min}, expected {expected_exit}")
    return errors


def check_scan(text, fmt, exit_code, ref, full_grid):
    """Check `scan` output (summary, and the grid rows when full_grid) against ref."""
    try:
        summary, grid = parse_scan(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable scan output: {exc}"]
    errors = _check_summary(summary, exit_code, ref)
    if not full_grid:
        if grid is not None:
            errors.append("scan emitted a grid that was not requested")
        return errors
    where = f"grid T={ref.T} w={ref.omega} step={ref.step}"
    if grid is None:
        return errors + [f"{where}: no grid rows"]
    if grid.shape[0] != ref.g.size:
        return errors + [f"{where}: {grid.shape[0]} rows, the checker has {ref.g.size} physical nodes"]
    moved = (np.abs(grid[:, 0] - ref.g) > 1e-12) | (np.abs(grid[:, 1] - ref.gp) > 1e-12)
    if np.any(moved):
        i = int(np.argmax(moved))
        errors.append(f"{where}: row {i} is ({grid[i, 0]}, {grid[i, 1]}), "
                      f"the checker's node is ({ref.g[i]}, {ref.gp[i]})")
    off = np.abs(grid[:, 2] - ref.R)
    if not np.all(off <= SCAN_TOL):
        i = int(np.argmax(np.where(np.isnan(off), np.inf, off)))
        errors.append(f"{where}: row {i} has R={grid[i, 2]}, the checker's is {ref.R[i]}")
    if summary["R_min"] != grid[:, 2].min():
        errors.append(f"{where}: summary R_min={summary['R_min']} != row minimum {grid[:, 2].min()}")
    return errors
