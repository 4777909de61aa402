"""Acceptance suite: the headline numerical guarantees, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
as they happen; without -s they still appear for any failing criterion.
"""

import numpy as np
import pytest

from twowayqkd import (COLLECTIVE, SEP_SYM_NEG, AttackParams, ProtocolParams, apply_symplectic,
                       attack_from_class, class_variations, conditional_cm, entropic_h, eve_cm,
                       excess_noise, keyrate_asymptotic, keyrate_report, optimal_attack_scan,
                       ppt_separable, protocol, symplectic_spectrum, threshold_curves, total_cm,
                       total_cm_circuit)
from twowayqkd.security import INSECURE_AT_VACUUM, OK

from _util import random_beam_splitter_net, random_bona_fide_cm, random_physical_attack

FIVE_CLASSES = ("collective", "epr+", "sep-sym+", "sep-anti+", "sep-sym-")


def _criterion(number, description, checks):
    failures = [msg for ok, msg in checks if not ok]
    if failures:
        print(f"[FAIL] criterion {number}: {description}")
        for msg in failures:
            print(f"       {msg}")
        pytest.fail(f"criterion {number}: {len(failures)} of {len(checks)} checks failed: "
                    + "; ".join(failures))
    print(f"[PASS] criterion {number}: {description} ({len(checks)} checks)")


def test_criterion_01_circuit_oracle_equality():
    rng = np.random.default_rng(101)
    checks = []
    for _ in range(100):
        p = ProtocolParams(T=float(rng.uniform(0.05, 0.95)),
                           eta=float(rng.uniform(0.05, 0.95)),
                           mu_B=float(rng.uniform(1.0, 20.0)),
                           mu_A=float(rng.uniform(1.0, 20.0)))
        a = random_physical_attack(rng)
        gap = float(np.max(np.abs(total_cm(p, a) - total_cm_circuit(p, a))))
        checks.append((gap <= 1e-10, f"max entry gap {gap:.2e} at {p}, {a}"))
    _criterion(1, "closed-form total CM equals circuit simulation within 1e-10", checks)


def test_criterion_02_asymptotic_spectrum_convergence():
    import mpmath as mp

    from _hiprec import DPS, mp_attack, mp_symplectic_spectrum, mp_total_cm

    mu = 1e6
    one_minus_eta = 1e-6
    checks = []
    old_dps = mp.mp.dps
    mp.mp.dps = DPS
    try:
        for T in (0.5, 0.65, 0.9):
            for w in (1.5, 2.0, 3.0):
                for label in FIVE_CLASSES:
                    a = attack_from_class(label, w)
                    rep = keyrate_report(T, a, mu)
                    nu1, nu2, product = rep.nu1, rep.nu2, rep.nu3nu4_product
                    # total state: the displacement limit exceeds float64's
                    # representable purity, so the exact spectrum is computed
                    # in 40-digit arithmetic from the same closed form
                    g, gp = mp_attack(label, w)
                    V = mp_total_cm(T, 1.0 - one_minus_eta, mu + 1.0,
                                    mu / one_minus_eta + 1.0, w, g, gp)
                    spec = [float(x) for x in mp_symplectic_spectrum(V)]
                    got_prod = spec[0] * spec[1]
                    got_small = sorted(spec[2:], reverse=True)
                    want_small = sorted([nu1, nu2], reverse=True)
                    rel = [abs(got_prod - product) / product]
                    rel += [abs(a - b) / b for a, b in zip(got_small, want_small)]
                    # conditional state stays at float64 scale: use the library
                    p = ProtocolParams.displacement_limit(T, mu=mu, eta=1.0 - one_minus_eta)
                    cond = symplectic_spectrum(conditional_cm(p, a))
                    nb = sorted((rep.nubar1, rep.nubar2), reverse=True)
                    rel += [abs(a_ - b_) / b_ for a_, b_ in zip(cond, nb)]
                    worst = max(rel)
                    checks.append((worst <= 1e-3,
                                   f"{label} T={T} w={w}: worst rel dev {worst:.2e}"))
    finally:
        mp.mp.dps = old_dps
    _criterion(2, "numeric spectra match the asymptotic forms within 1e-3", checks)


def test_criterion_03_collective_reduction_exact():
    checks = []
    for T in (0.3, 0.65, 0.9):
        for w in (1.0, 1.1, 1.7, 2.0, 3.3):
            rep = keyrate_report(T, AttackParams(w, 0.0, 0.0), 1e6)
            nu1, nu2 = rep.nu1, rep.nu2
            checks.append((nu1 == w and nu2 == w,
                           f"T={T} w={w}: got ({nu1!r}, {nu2!r})"))
    _criterion(3, "collective attacks reduce to nu1 = nu2 = omega exactly", checks)


def test_criterion_04_epr_sign_equivalence():
    checks = []
    for T in (0.3, 0.5, 0.7, 0.9):
        for w in (1.2, 2.0, 3.0, 5.0):
            r_pos = keyrate_asymptotic(T, attack_from_class("epr+", w))
            r_neg = keyrate_asymptotic(T, attack_from_class("epr-", w))
            checks.append((abs(r_pos - r_neg) <= 1e-9,
                           f"T={T} w={w}: |dR| = {abs(r_pos - r_neg):.2e}"))
    _criterion(4, "both EPR attack signs give identical key rates within 1e-9", checks)


def test_criterion_05_optimal_attack_location():
    # The optimal attack has symmetric, separable correlations. It is not
    # pinned to the corner (1-w, 1-w): h has a log-singular slope at nu = 1,
    # so stepping inward from the corner always lowers R (see
    # TestExactEntanglementBasedOracle.test_corner_is_not_the_minimizer).
    # R(g, g') = R(g', g), so the grid argmin may sit one node off the diagonal.
    step = 0.02
    checks = []
    for T in (0.5, 0.65, 0.8, 0.95):
        for w in (1.5, 2.0, 3.0):
            res = optimal_attack_scan(T, w, step)
            g, gp = res.best_g, res.best_g_prime
            r_coll = keyrate_asymptotic(T, attack_from_class("collective", w))
            r_sep = keyrate_asymptotic(T, attack_from_class("sep-sym-", w))
            where = f"T={T} w={w}: minimizer ({g:.3f}, {gp:.3f}), R_min={res.R_min:.4f}"
            checks.append((abs(g - gp) <= step + 1e-12, f"{where} is not symmetric"))
            checks.append((ppt_separable(eve_cm(AttackParams(w, g, gp))),
                           f"{where} is not separable"))
            checks.append((g + gp < 0, f"{where} is not in the sep-sym- sign family"))
            checks.append((res.R_min < r_coll, f"{where} not below collective R={r_coll:.4f}"))
            checks.append((res.R_min <= r_sep + 1e-12,
                           f"{where} above sep-sym- R={r_sep:.4f}"))
    _criterion(5, "scan minimizer is symmetric, separable, anticorrelated and at least as "
                  "strong as sep-sym-", checks)


def _threshold_noise(t_grid, failed):
    """N* columns over t_grid of the sep-sym- corner class, collective and one-way curves,
    from one batched solve.  Appends to `failed` each lane that neither found its root nor
    is insecure at vacuum noise (N* = 0), so that a failed solve fails the criterion."""
    curves = threshold_curves(["sep-sym-", "collective"], t_grid, with_oneway=True)
    failed += [f"{c.attack_class} at T={T}: {status}" for c in curves
               for T, status in zip(c.T.tolist(), c.status.tolist())
               if status not in (OK, INSECURE_AT_VACUUM)]
    return [c.N_star for c in curves]


def _solved(failed):
    return not failed, f"threshold solve failed: {'; '.join(failed)}"


def test_criterion_06_threshold_ordering():
    grid = np.round(np.arange(0.30, 0.991, 0.01), 10)
    failed = []
    n_ds, n_colls, n_ones = _threshold_noise(grid, failed)
    checks = [_solved(failed)]
    for T, n_d, n_coll, n_one in zip(grid, n_ds, n_colls, n_ones):
        checks.append((n_d <= n_coll + 1e-12,
                       f"T={T}: N_d={n_d:.6f} > N_collective={n_coll:.6f}"))
        checks.append((n_one <= n_coll + 1e-12,
                       f"T={T}: N_oneway={n_one:.6f} > N_collective={n_coll:.6f}"))
    _criterion(6, "the sep-sym- corner class's and the one-way thresholds never exceed "
                  "the collective two-way threshold", checks)


def test_criterion_07_oneway_crossing_location():
    failed = []

    def gap(T):
        n_d, _, n_one = _threshold_noise([T], failed)
        return n_d[0] - n_one[0]

    lo, hi = 0.80, 0.95
    g_lo = gap(lo)
    assert g_lo > 0 and gap(hi) < 0, "crossing bracket failed"
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if (gap(mid) > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    _criterion(7, "the sep-sym- corner class's threshold crosses the one-way baseline "
                  "at T = 0.86 +- 0.02",
               [(abs(crossing - 0.86) <= 0.02, f"crossing at T = {crossing:.4f}"),
                _solved(failed)])


def test_criterion_08_holevo_ordering_and_variations():
    mu = 1e6
    checks = []
    for w in (1.5, 2.0, 3.0, 4.0, 5.0):
        chi_d = keyrate_report(0.65, attack_from_class("sep-sym-", w), mu).chi_EA
        for label in ("collective", "epr+", "sep-sym+", "sep-anti+"):
            chi = keyrate_report(0.65, attack_from_class(label, w), mu).chi_EA
            checks.append((chi_d > chi,
                           f"w={w}: chi[sep-sym-]={chi_d:.4f} not above chi[{label}]={chi:.4f}"))
    omegas = [1.5, 2.0, 3.0, 4.0, 5.0]
    _, _, _, _, d_i, d_chi = class_variations((0.65, 0.95), mu, omegas, (COLLECTIVE, SEP_SYM_NEG))
    (di_low, di_high), (dchi_low, dchi_high) = d_i.reshape(2, -1), d_chi.reshape(2, -1)
    for w, di_lo, dchi_lo, di_hi, dchi_hi in zip(omegas, di_low, dchi_low, di_high, dchi_high):
        checks.append((abs(di_hi) < abs(di_lo),
                       f"w={w}: |dI(0.95)|={abs(di_hi):.5f} not below |dI(0.65)|={abs(di_lo):.5f}"))
        checks.append((dchi_hi > dchi_lo,
                       f"w={w}: dchi(0.95)={dchi_hi:.5f} not above dchi(0.65)={dchi_lo:.5f}"))
    _criterion(8, "the sep-sym- corner class has the largest Holevo bound of five classes; "
                  "variations follow the transmissivity trend", checks)


def test_criterion_09_analytic_spot_values():
    r = keyrate_asymptotic(0.9, AttackParams(1.0, 0.0, 0.0))
    checks = [
        (entropic_h(3.0) == 2.0, f"h(3) = {entropic_h(3.0)!r}"),
        (abs(r - np.log2(0.9 * 1.9 / (np.e * 0.1))) <= 1e-12,
         f"R(0.9, 1, collective) = {r!r}"),
        (excess_noise(0.5, 2.0) == 1.0, f"N(0.5, 2) = {excess_noise(0.5, 2.0)!r}"),
    ]
    _criterion(9, "analytic spot values", checks)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(105)
    checks = []

    # symplectic invariance of the spectrum
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(8):
            V = random_bona_fide_cm(rng, n)
            S = random_beam_splitter_net(rng, n)
            gap = np.max(np.abs(symplectic_spectrum(apply_symplectic(S, V))
                                - symplectic_spectrum(V)))
            worst = max(worst, float(gap))
    checks.append((worst <= 1e-8, f"symplectic invariance: worst gap {worst:.2e}"))

    # purity of beam-splitter images of pure sources
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(8):
            V = random_bona_fide_cm(rng, n, pure=True)
            worst = max(worst, float(np.max(np.abs(symplectic_spectrum(V) - 1.0))))
    checks.append((worst <= 1e-8, f"purity: worst |nu - 1| = {worst:.2e}"))

    # determinant consistency
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(8):
            V = random_bona_fide_cm(rng, n)
            nu = symplectic_spectrum(V)
            worst = max(worst, float(abs(np.prod(nu ** 2) / np.linalg.det(V) - 1.0)))
    checks.append((worst <= 1e-6, f"determinant consistency: worst rel {worst:.2e}"))

    # extremal classes saturate the physicality boundary
    worst = 0.0
    ppt_ok = True
    for w in (1.5, 2.0, 3.0, 5.0):
        for label in ("epr+", "epr-", "sep-sym+", "sep-sym-"):
            nu_min = symplectic_spectrum(eve_cm(attack_from_class(label, w)))[-1]
            worst = max(worst, abs(nu_min - 1.0))
        ppt_ok &= ppt_separable(eve_cm(attack_from_class("sep-sym+", w)))
        ppt_ok &= ppt_separable(eve_cm(attack_from_class("sep-sym-", w)))
    checks.append((worst <= 1e-9, f"extremal saturation: worst |nu_min - 1| = {worst:.2e}"))
    checks.append((ppt_ok, "separable extremal classes failed the PPT test"))

    # modulation independence, Holevo nonnegativity, R <= I_AB, read from the closed form:
    # keyrate_report's consistency check would raise on exactly what these checks report
    worst_mu = 0.0
    chi_min = np.inf
    excess = -np.inf
    for _ in range(40):
        a = random_physical_attack(rng)
        T = float(rng.uniform(0.1, 0.95))
        r = keyrate_asymptotic(T, a)
        for mu in (1e5, 1e6, 1e7):
            iab, chi = map(float, protocol._information(T, protocol._two_way_at(T, a, mu), mu))
            worst_mu = max(worst_mu, abs(r - (iab - chi)))
            chi_min = min(chi_min, chi)
            excess = max(excess, r - iab)
    checks.append((worst_mu <= 1e-9, f"modulation independence: worst {worst_mu:.2e}"))
    checks.append((chi_min >= -1e-9, f"Holevo bound went negative: {chi_min:.2e}"))
    checks.append((excess <= 1e-9, f"R exceeded I_AB by {excess:.2e}"))

    _criterion(10, "property suites (invariance, purity, determinants, saturation, "
                   "modulation independence, bounds)", checks)
