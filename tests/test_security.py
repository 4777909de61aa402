import json
import math
import struct
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twowayqkd import (ATTACK_CLASSES, COLLECTIVE, SEP_SYM_NEG, AttackParams, UnphysicalStateError,
                       attack_from_class, class_variations, eve_cm, excess_noise, is_physical,
                       keyrate_asymptotic, keyrate_report, oneway_keyrate, oneway_report,
                       optimal_attack_scan, physical_region_grid, ppt_separable, scan_grid,
                       security, threshold_curves)
from twowayqkd._serialize import Table, csv_table, json_text
from twowayqkd.attacks import _class_gaps, _physical_mask
from twowayqkd.gaussian import BONA_FIDE_ATOL, MAX_VARIANCE, entropic_h
from twowayqkd.protocol import _keyrate_arrays, _rate, _two_way_arrays
from twowayqkd.security import (BRACKET_CAP, BRACKET_TOL, INSECURE_AT_VACUUM, NO_CROSSING,
                                NON_MONOTONE, OK, ONEWAY_MU_A, _bisect_lanes, _oneway_arrays,
                                _oneway_quantities)

from _hiprec import mp_attack, mp_oneway_information, mp_oneway_rate, mp_twoway_rate, with_dps
from _util import bisect_threshold, lexsort_minimizer, oneway_quantities_circuit, record_calls


class TestExcessNoise:
    def test_pure_loss_has_none(self):
        for t in (0.1, 0.5, 0.9, 1.0):
            assert excess_noise(t, 1.0) == 0.0

    def test_spot_value(self):
        assert excess_noise(0.5, 2.0) == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = float(rng.uniform(0.05, 0.95))
            n = float(rng.uniform(0.0, 30.0))
            assert excess_noise(t, 1.0 + t * n / (1.0 - t)) == pytest.approx(n, abs=1e-12)

    def test_validates(self):
        with pytest.raises(ValueError):
            excess_noise(0.0, 2.0)
        with pytest.raises(ValueError):
            excess_noise(0.5, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_excess_noise_rejects_non_finite_omega(self, value):
        with pytest.raises(ValueError, match=f"omega must be finite, got {value}"):
            excess_noise(0.5, value)


class TestThresholdOmega:
    def test_collective_matches_grid_scan_oracle(self):
        T = 0.9
        curve = threshold_curves(["collective"], [T])[0]
        assert curve.status.tolist() == [OK]
        w_star = float(curve.omega_star[0])
        # independent oracle: dense grid locating the sign change
        grid = np.linspace(1.0, 8.0, 20001)
        rates = np.array([keyrate_asymptotic(T, AttackParams(w, 0.0, 0.0)) for w in grid])
        sign_change = np.where(np.diff(np.sign(rates)) < 0)[0]
        assert len(sign_change) == 1
        lo, hi = grid[sign_change[0]], grid[sign_change[0] + 1]
        assert lo <= w_star <= hi
        assert abs(keyrate_asymptotic(T, AttackParams(w_star, 0.0, 0.0))) <= 1e-8

    def test_symmetric_separable_attack_is_stronger_than_collective(self):
        sep, coll = threshold_curves(["sep-sym-", "collective"], [0.7, 0.9])
        assert sep.status.tolist() == coll.status.tolist() == [OK, OK]
        assert (sep.omega_star < coll.omega_star).all()

    def test_no_secure_region_at_low_transmissivity(self):
        assert threshold_curves(["collective"], [1e-3])[0].status.tolist() == [INSECURE_AT_VACUUM]

    def test_epr_rate_rebound_is_detected(self):
        assert threshold_curves(["epr+"], [0.9])[0].status.tolist() == [NON_MONOTONE]


class TestThresholdCurve:
    def test_epr_signs_coincide_pointwise(self):
        grid = [0.4, 0.55, 0.7, 0.85]
        pos, neg = threshold_curves(["epr+", "epr-"], grid)
        assert pos.secure.tolist() == neg.secure.tolist()
        for p, q in zip(pos.omega_star.tolist(), neg.omega_star.tolist()):
            if math.isfinite(p) and math.isfinite(q):
                assert abs(p - q) <= 1e-8
            else:
                assert repr(p) == repr(q)

    def test_epr_serializations_byte_identical(self):
        grid = [0.4, 0.55, 0.7, 0.85]
        pos, neg = threshold_curves(["epr+", "epr-"], grid)
        header = ("T", "omega_star", "N_star", "secure")
        tables = [Table(header, (c.T, c.omega_star, c.N_star, c.secure)) for c in (pos, neg)]
        assert csv_table(tables[0]) == csv_table(tables[1])
        assert json_text(tables[0]) == json_text(tables[1])

    def test_csv_header_contract(self):
        curve = threshold_curves(["collective"], [0.5, 0.7, 0.9])[0]
        assert list(curve._fields) == [
            "attack_class", "T", "omega_star", "N_star", "secure", "status"]
        assert all(getattr(curve, f).shape == (3,) for f in ("T", "omega_star", "N_star", "secure"))

    def test_insecure_points_flagged_not_dropped(self):
        curve = threshold_curves(["collective"], [0.3, 0.5, 0.7, 0.9])[0]
        assert curve.secure.tolist() == [False, False, True, True]
        assert curve.omega_star[0] == 1.0 and curve.N_star[0] == 0.0

    def test_points_satisfy_rate_residual(self):
        curve = threshold_curves(["sep-anti+"], [0.7, 0.8, 0.9])[0]
        for T, omega_star in zip(curve.T.tolist(), curve.omega_star.tolist()):
            a = attack_from_class("sep-anti+", omega_star)
            assert abs(keyrate_asymptotic(T, a)) <= 1e-8

    @pytest.mark.parametrize("label", ["collective", "sep-sym+", "sep-sym-", "sep-anti+"])
    def test_excess_noise_thresholds_nondecreasing(self, label):
        grid = list(np.round(np.arange(0.30, 0.99, 0.02), 10))
        curve = threshold_curves([label], grid)[0]
        n_stars = curve.N_star.tolist()
        assert all(b >= a - 1e-12 for a, b in zip(n_stars, n_stars[1:]))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            threshold_curves(["collective"], [0.5, 0.4])
        with pytest.raises(ValueError):
            threshold_curves(["collective"], [])


#: the solver's bracket ladder 1, 2, 4, ..., BRACKET_CAP
LADDER = [2.0 ** k for k in range(int(math.log2(BRACKET_CAP)) + 1)]


def ladder_lane(values):
    """Scalar rate through values[k] at omega = LADDER[k], linear between rungs."""
    def rate(w):
        k = math.frexp(w)[1] - 1  # the rung at or below w
        if w == LADDER[k]:
            return values[k]
        return values[k] + (values[k + 1] - values[k]) * (w - LADDER[k]) / LADDER[k]
    return rate


@st.composite
def ladder_values(draw):
    """Rung values that fall from a random start, perhaps shifted to an exact zero on a
    rung, then perhaps given a NaN or a rebound (a value no lower than the rung before)."""
    rungs = st.integers(0, len(LADDER) - 1)
    steps = draw(st.lists(st.floats(0.01, 3.0), min_size=len(LADDER) - 1,
                          max_size=len(LADDER) - 1))
    values = draw(st.floats(-1.0, 40.0)) - np.cumsum([0.0, *steps])
    if draw(st.booleans()):
        values -= values[draw(rungs)]
    for rung in draw(st.lists(rungs, max_size=2)):
        values[rung] = draw(st.sampled_from(
            [math.nan, values[max(rung - 1, 0)] + draw(st.floats(0.0, 1.0))]))
    return values.tolist()


class TestBatchedSolver:
    # insecure at vacuum noise below T ~ 0.66 (one-way: ~ 0.73), rebounding
    # EPR rates above it, roots for the other classes
    T_GRID = [0.01, 0.2, 0.45, 0.6, 0.66, 0.7, 0.73, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999]

    @pytest.mark.parametrize("label", [*ATTACK_CLASSES, "oneway"])
    def test_roots_equal_scalar_oracle_bit_for_bit(self, label):
        if label == "oneway":
            curve = threshold_curves([], self.T_GRID, with_oneway=True)[0]
            rates = [lambda w, T=T: oneway_keyrate(T, w) for T in self.T_GRID]
        else:
            curve = threshold_curves([label], self.T_GRID)[0]
            rates = [lambda w, T=T: keyrate_asymptotic(T, attack_from_class(label, w))
                     for T in self.T_GRID]
        statuses = set()
        for got_status, omega_star, rate in zip(curve.status.tolist(), curve.omega_star.tolist(),
                                                rates):
            root, status = bisect_threshold(rate)
            assert got_status == status
            assert repr(omega_star) == repr(root)
            statuses.add(status)
        expected = {INSECURE_AT_VACUUM, NON_MONOTONE if label.startswith("epr") else OK}
        if label == "sep-sym+":
            expected.add(NO_CROSSING)  # at T = 0.999 the root lies beyond BRACKET_CAP
        assert statuses == expected

    def test_synthetic_lanes_cover_every_outcome(self):
        lane_rates = [
            lambda w: 3.0 - w,                      # ok, root 3
            lambda w: -1.0,                         # insecure at vacuum noise
            lambda w: 1.0 / w,                      # positive up to the cap
            lambda w: w - 0.5,                      # rises while bracketing
            lambda w: 4.0 - w if w < 3.0 else -1.0,  # falls, but jumps across zero
            lambda w: 5.0 - w,                      # ok, root 5
        ]

        def rate(lanes, omega):
            return np.array([lane_rates[i](w) for i, w in zip(lanes, omega)], dtype=float)

        roots, status = _bisect_lanes(rate, len(lane_rates))
        assert status.tolist() == [OK, INSECURE_AT_VACUUM, NO_CROSSING, NON_MONOTONE,
                                   NON_MONOTONE, OK]
        assert roots[0] == pytest.approx(3.0, abs=1e-10)
        assert roots[5] == pytest.approx(5.0, abs=1e-10)
        # each lane returns the oracle's (omega, status) as a whole, NaN included
        assert [repr(lane) for lane in zip(roots.tolist(), status.tolist())] == [
            repr(bisect_threshold(r)) for r in lane_rates]

    @settings(max_examples=300, deadline=None)
    @given(lanes=st.lists(ladder_values(), min_size=1, max_size=8))
    @example(lanes=[[40.0 - k for k in range(len(LADDER))],        # positive at the cap
                    [8.0 - k for k in range(len(LADDER))],         # exact zero on a rung
                    [3.5 - k for k in range(len(LADDER))],         # root between rungs
                    [8.0 - k if k != 5 else 4.0 for k in range(len(LADDER))],  # rebound
                    [8.0 - k if k != 2 else math.nan for k in range(len(LADDER))]])
    def test_lanes_equal_scalar_oracle_bit_for_bit(self, lanes):
        # rung-boundary cases the physical rates do not reach: each lane returns the
        # scalar search's (omega, status), whatever the lanes beside it
        rates = [ladder_lane(values) for values in lanes]

        def rate(index, omega):
            return np.array([rates[i](w) for i, w in zip(index.tolist(), omega.tolist())])

        roots, status = _bisect_lanes(rate, len(rates))
        assert [repr(lane) for lane in zip(roots.tolist(), status.tolist())] == [
            repr(bisect_threshold(r)) for r in rates]

    def test_both_kernels_are_defined_on_every_rung(self):
        # the ladder rates every lane up to BRACKET_CAP, also past where its search stops;
        # at extreme T this raises no warning (an error here) and changes no lane.  The
        # class lanes are rated one at a time through the batch kernel, since
        # keyrate_asymptotic refuses the EPR classes at omega = 8192 (g rounds unphysical)
        grid = [1e-300, 1e-150, 1e-12, 0.5, 0.9, 1 - 1e-9, 1 - 1e-12, 1 - 2.2e-16]
        for curve in threshold_curves(ATTACK_CLASSES, grid, with_oneway=True):
            for T, omega_star, status in zip(curve.T.tolist(), curve.omega_star.tolist(),
                                             curve.status.tolist()):
                if curve.attack_class == "oneway":
                    rate = lambda w, T=T: oneway_keyrate(T, w)
                else:
                    rate = lambda w, T=T, i=ATTACK_CLASSES.index(curve.attack_class): float(
                        _rate(T, _two_way_arrays(T, w, *_class_gaps(i, w))))
                assert repr((omega_star, status)) == repr(bisect_threshold(rate)), (
                    curve.attack_class, T)

    @pytest.mark.parametrize("seed", range(3))
    def test_batched_curves_equal_one_curve_calls(self, seed):
        # one solve for every curve of a run: each column, packed to bytes, equals the
        # one-curve call's, whatever the class order, repeats and one-way curve beside it
        rng = np.random.default_rng(seed)
        classes = [*ATTACK_CLASSES, *rng.choice(ATTACK_CLASSES, 3).tolist()]
        rng.shuffle(classes)
        grid = sorted(set(self.T_GRID + rng.uniform(0.0, 1.0, 8).tolist()))
        batch = threshold_curves(classes, grid, with_oneway=True)
        single = [threshold_curves([c], grid)[0] for c in classes]
        single += threshold_curves([], grid, with_oneway=True)

        def packed(curve):
            return (curve.attack_class, curve.status.tolist(),
                    *(getattr(curve, f).tobytes() for f in ("T", "omega_star", "N_star", "secure")))

        assert [packed(c) for c in batch] == [packed(c) for c in single]
        assert [c.attack_class for c in batch] == [*classes, "oneway"]
        assert {s for c in batch for s in c.status.tolist()} == {
            OK, INSECURE_AT_VACUUM, NO_CROSSING, NON_MONOTONE}

    def test_each_rate_model_calls_only_its_own_kernel(self, monkeypatch):
        # one solve per rate model: the class curves call no one-way kernel, the one-way
        # curve no two-way kernel, and no curves call neither
        two_way = record_calls(monkeypatch, security, "_two_way_arrays")
        one_way = record_calls(monkeypatch, security, "_oneway_arrays")
        threshold_curves(["collective", "sep-sym-"], self.T_GRID)
        assert two_way and not one_way
        two_way.clear()
        threshold_curves([], self.T_GRID, with_oneway=True)
        assert one_way and not two_way
        one_way.clear()
        assert threshold_curves([], self.T_GRID) == []
        assert not two_way and not one_way

    def test_kernels_never_see_an_empty_lane_set(self, monkeypatch):
        # epr+ at T = 0.9 rebounds while bracketing, so no lane reaches the residual check
        two_way = record_calls(monkeypatch, security, "_two_way_arrays")
        one_way = record_calls(monkeypatch, security, "_oneway_arrays")
        curves = threshold_curves(["epr+"], [0.5, 0.9], with_oneway=True)
        assert curves[0].status.tolist() == [INSECURE_AT_VACUUM, NON_MONOTONE]
        assert two_way and one_way
        assert all(np.size(args[0]) > 0 for args, _ in two_way + one_way)

    def test_batched_curves_check_classes_then_grid(self):
        with pytest.raises(ValueError, match="unknown attack class 'bogus'"):
            threshold_curves(["collective", "bogus"], [])
        with pytest.raises(ValueError, match="strictly increasing"):
            threshold_curves(["collective"], [0.5, 0.4], with_oneway=True)
        assert threshold_curves([], [0.5]) == []

    def test_curve_points_carry_status(self):
        curve = threshold_curves(["epr+"], [0.5, 0.9])[0]
        assert curve.status.tolist() == [INSECURE_AT_VACUUM, NON_MONOTONE]
        assert math.isnan(curve.omega_star[1]) and math.isnan(curve.N_star[1]) and curve.secure[1]
        assert list(curve._fields)[1:5] == ["T", "omega_star", "N_star", "secure"]


class TestRootPrecision:
    """Threshold roots against 40-digit roots of the same closed forms.

    The bisection stops at a bracket of BRACKET_TOL and prints its midpoint,
    so a root is good to BRACKET_TOL / 2 plus the few ulps where the float
    rate's sign is rounding; the digits past that are not true yet.
    """

    GRID = [0.75, 0.9, 0.99]

    @staticmethod
    def _mp_root(rate, omega):
        lo, hi = mp.mpf(omega) - mp.mpf("1e-9"), mp.mpf(omega) + mp.mpf("1e-9")
        assert rate(lo) > 0 > rate(hi)
        return mp.findroot(rate, (lo, hi), solver="anderson")

    def test_ok_roots_within_half_the_bracket(self):
        curves = threshold_curves(ATTACK_CLASSES, self.GRID, with_oneway=True)
        checked = {}
        for curve in curves:
            for T, omega, status in zip(curve.T.tolist(), curve.omega_star.tolist(),
                                        curve.status.tolist()):
                if status != OK:
                    continue
                if curve.attack_class == "oneway":
                    rate = lambda w, T=T: mp_oneway_rate(T, w, ONEWAY_MU_A)
                else:
                    rate = lambda w, T=T, c=curve.attack_class: mp_twoway_rate(
                        T, w, *mp_attack(c, w))
                exact = with_dps(self._mp_root, rate, omega)
                gap = abs(float(mp.mpf(omega) - exact))
                assert gap <= BRACKET_TOL / 2 + 4 * np.spacing(omega), (curve.attack_class, T)
                checked[curve.attack_class] = checked.get(curve.attack_class, 0) + 1
        # the EPR classes rebound without crossing zero, so they have no root to check
        assert checked == {c: len(self.GRID) for c in (*ATTACK_CLASSES, "oneway")
                           if not c.startswith("epr")}
        assert {c.attack_class: set(c.status) for c in curves if c.attack_class.startswith("epr")} \
            == {"epr+": {NON_MONOTONE}, "epr-": {NON_MONOTONE}}


class TestOptimalAttackScan:
    def test_matches_scalar_brute_force(self):
        T, w, step = 0.8, 1.6, 0.2
        result = optimal_attack_scan(T, w, step)
        rates = [(keyrate_asymptotic(T, AttackParams(w, g, gp)), g, gp)
                 for g, gp in physical_region_grid(w, step).tolist()]
        best = min(rates)
        assert result.R_min == pytest.approx(best[0], abs=1e-12)
        assert (result.best_g, result.best_g_prime) == (best[1], best[2])

    def test_record_keeps_its_key_order(self):
        result = optimal_attack_scan(0.8, 1.5, 0.1)
        payload = result._asdict()
        assert type(payload) is dict and list(payload) == [
            "T", "omega", "best_g", "best_g_prime", "R_min", "grid_resolution"]
        assert tuple(payload.values()) == tuple(result)

    def test_degenerate_region_at_vacuum_noise(self):
        result = optimal_attack_scan(0.65, 1.0, 0.1)
        assert (result.best_g, result.best_g_prime) == (0.0, 0.0)
        assert result.R_min == pytest.approx(
            keyrate_asymptotic(0.65, AttackParams(1.0, 0.0, 0.0)), abs=1e-12)

    def test_never_above_collective(self):
        for T in (0.5, 0.8, 0.95):
            for w in (1.5, 2.5):
                result = optimal_attack_scan(T, w, 0.1)
                assert result.R_min <= keyrate_asymptotic(T, AttackParams(w, 0.0, 0.0)) + 1e-12

    def test_stability_under_refinement(self):
        coarse = optimal_attack_scan(0.95, 2.0, 0.1)
        fine = optimal_attack_scan(0.95, 2.0, 0.05)
        assert abs(fine.best_g - coarse.best_g) <= 0.1 + 1e-12
        assert abs(fine.best_g_prime - coarse.best_g_prime) <= 0.1 + 1e-12

    def test_collective_node_equals_scalar_rate(self):
        # the grid's (0, 0) node goes through the same closed form as keyrate, bit for bit
        for T, w in ((0.5, 2.0), (0.65, 1.5), (0.8, 3.0), (0.95, 2.5)):
            rows = scan_grid(T, w, 0.5)
            g, gp, rate = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)][0]
            assert rate == keyrate_asymptotic(T, AttackParams(w, 0.0, 0.0))

    def test_full_grid_matches_region(self):
        rows = scan_grid(0.7, 1.5, 0.25)
        assert len(rows) == len(physical_region_grid(1.5, 0.25))

    def test_every_row_equals_direct_evaluation(self):
        # scan_grid rates each mirror pair once and copies the rate to the other row; the
        # half-grid scan below takes scan_grid as its oracle, so check scan_grid here
        # against the closed form at each row's own node, without the symmetry
        rng = np.random.default_rng(23)
        cases = [(float(rng.uniform(0.02, 0.99)), w, w / float(rng.uniform(1.0, 25.0)))
                 for w in [1.0] * 5 + rng.uniform(1.0, 6.0, 60).tolist()]
        cases += [(T, w, 0.013) for T, w in ((0.8, 1.0), (0.8, 2.0), (0.5, 3.0), (0.95, 1.05))]
        for T, w, step in cases:
            rows = scan_grid(T, w, step)
            g, gp, rate = rows.T
            assert np.array_equal(rows[:, :2], physical_region_grid(w, step)), (T, w, step)
            assert rate.tobytes() == _keyrate_arrays(T, w, g, gp).tobytes(), (T, w, step)

    def test_half_grid_equals_full_grid_lexsort(self):
        # random (T, omega, step) grids, omega = 1 among them; every grid ties each
        # node (g, g') with (g', g), and the rate takes the same bits on both
        rng = np.random.default_rng(67)
        cases = [(float(rng.uniform(0.02, 0.99)), w, w / float(rng.uniform(1.0, 25.0)))
                 for w in [1.0] * 10 + rng.uniform(1.0, 6.0, 180).tolist()]
        cases += [(T, w, 0.1) for T in (0.5, 0.65, 0.8, 0.95) for w in (1.0, 1.5, 2.0, 3.0, 1.05)]
        for T, w, step in cases:
            result = optimal_attack_scan(T, w, step)
            got = (result.best_g, result.best_g_prime, result.R_min)
            assert struct.pack("<3d", *got) == struct.pack(
                "<3d", *lexsort_minimizer(scan_grid(T, w, step))), (T, w, step)
            assert result.best_g <= result.best_g_prime

    def test_scan_equals_full_grid_lexsort_on_fine_grids(self):
        # the criterion-5 points at step 0.01, random grids of 150 to 300 steps a half
        # axis, omega just above 1 among them, and T at the extremes, where the rise of
        # the rate off the diagonal is least and a tie there would pick the wrong node
        cases = [(T, w, 0.01) for T in (0.5, 0.65, 0.8, 0.95) for w in (1.5, 2.0, 3.0)]
        rng = np.random.default_rng(14)
        for w in rng.uniform(1.0, 6.0, 4).tolist() + [1.0 + 1e-3, 1.0 + 1e-7]:
            cases.append((float(rng.uniform(0.02, 0.99)), w, w / float(rng.uniform(150.0, 300.0))))
        cases += [(T, w, w / 100.0) for T in (1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 2.2e-16)
                  for w in (1.0 + 1e-9, 1.5, 20.0)]
        for T, w, step in cases:
            result = optimal_attack_scan(T, w, step)
            got = (result.best_g, result.best_g_prime, result.R_min)
            assert struct.pack("<3d", *got) == struct.pack(
                "<3d", *lexsort_minimizer(scan_grid(T, w, step))), (T, w, step)

    @settings(max_examples=500, deadline=None)
    @given(T=st.floats(1e-300, 1.0 - 2.2e-16), log_excess=st.floats(-7.0, 1.5),
           fu=st.floats(-1.0, 1.0), fb=st.floats(0.0, 1.0), fa=st.floats(0.0, 1.0))
    def test_rate_does_not_fall_off_the_diagonal(self, T, log_excess, fu, fb, fa):
        # Lemma A of the README: at fixed u = (g + g')/2 the rate does not fall as
        # |v| = |g - g'|/2 grows, which is what lets the scan rate one node per
        # antidiagonal.  u, a and b are multiples of 2^-40, so each pair sums to 2u
        # exactly.  Tolerance 1e-12 (1 + |R|), for the kernel's rounding; 800,000
        # sampled pairs (T from 1e-300 to 1 - 1e-16) showed no decrease at all
        omega = 1.0 + 10.0 ** log_excess
        q = 2.0 ** -40
        u = math.floor(fu * (omega - 1.0) / q) * q
        b = math.floor(fb * math.sqrt(max((omega - abs(u)) ** 2 - 1.0, 0.0)) / q) * q
        a = math.floor(fa * b / q) * q
        g, gp = np.array([u + a, u + b, u - b]), np.array([u - a, u - b, u + b])
        assume(_physical_mask(omega, g, gp).all())
        r_a, r_b, r_b_swapped = _keyrate_arrays(T, omega, g, gp)
        tol = 1e-12 * (1.0 + abs(r_a))
        assert r_b >= r_a - tol and r_b_swapped >= r_a - tol, (r_a, r_b, r_b_swapped)

    @settings(max_examples=500, deadline=None)
    @given(T=st.floats(1e-300, 1.0 - 2.2e-16), log_excess=st.floats(-7.0, 1.5),
           fs=st.floats(-1.0, 1.0), fh=st.floats(0.0, 1.0))
    def test_rate_is_convex_on_the_diagonal(self, T, log_excess, fs, fh):
        # Lemma B of the README: on the diagonal g = g' = -s, |s| < omega - 1, the
        # rate is strictly convex in s, so its second differences are >= 0.  s and h
        # are multiples of 2^-40, so s - h, s, s + h are equally spaced exactly.
        # Tolerance 1e-12 (1 + |R|), for the kernel's rounding; on 2,000,000 sampled
        # triples (T from 1e-300 to 1 - 1e-16) the least second difference was
        # -9.6e-16 (1 + |R|), rounding at the smallest steps h
        omega = 1.0 + 10.0 ** log_excess
        q = 2.0 ** -40
        s = math.floor(fs * (omega - 1.0) / q) * q
        h = math.floor(fh * (omega - 1.0 - abs(s)) / q) * q
        assume(h > 0.0 and abs(s) + h < omega - 1.0)
        g = -np.array([s - h, s, s + h])
        r_lo, r_mid, r_hi = _keyrate_arrays(T, omega, g, g)
        assert r_lo - 2.0 * r_mid + r_hi >= -1e-12 * (1.0 + abs(r_mid)), (r_lo, r_mid, r_hi)

    @settings(max_examples=500, deadline=None)
    @given(log_excess=st.floats(-7.0, 3.0), f=st.floats(-1.0, 1.0))
    @example(log_excess=0.0, f=1.0 - 1e-12)  # at the mask's edge omega - g = 1 - 1e-9
    @example(log_excess=-7.0, f=-1.0)        # at the edge omega + g = 1 - 1e-9
    def test_symmetric_physical_attacks_are_separable(self, log_excess, f):
        # the separability step of the README: a symmetric physical attack g = g'
        # has |g| <= omega - 1 <= sqrt(omega^2 - 1), the PPT condition, which is
        # separability for two modes (Simon 2000); g spans the mask's tolerance too
        omega = 1.0 + 10.0 ** log_excess
        g = f * (omega - 1.0 + BONA_FIDE_ATOL)
        attack = AttackParams(omega, g, g)
        assume(is_physical(attack))
        assert ppt_separable(eve_cm(attack))

    def test_minimizer_breaks_ties_in_row_order(self, monkeypatch):
        # equal synthetic rates: the first node in row-major order wins, as with the full sort
        for fake in (lambda g, gp: np.zeros_like(g),
                     lambda g, gp: np.where(np.abs(g) + np.abs(gp) > 1.0, -1.0, 0.0),
                     lambda g, gp: np.round(np.cos(3.0 * g) * np.cos(3.0 * gp), 1)):
            rated = []

            def rates(T, omega, g, gp):
                rated.append(np.column_stack((g, gp, fake(g, gp))))
                return rated[-1][:, 2]

            monkeypatch.setattr(security, "_keyrate_arrays", rates)
            result = optimal_attack_scan(0.5, 2.0, 0.5)
            (rows,) = rated
            assert (result.best_g, result.best_g_prime, result.R_min) == lexsort_minimizer(rows)

    def test_minimizer_rejects_nan_rate(self, monkeypatch):
        monkeypatch.setattr(security, "_keyrate_arrays", lambda T, omega, g, gp: np.where(
            g == 0.0, math.nan, np.where(g > 0.0, -1.0, 1.0)))
        with pytest.raises(ValueError, match="NaN"):
            optimal_attack_scan(0.5, 2.0, 0.5)

    def test_rate_kernel_sees_half_the_grid(self, monkeypatch):
        calls = record_calls(monkeypatch, security, "_keyrate_arrays")
        for w, step in ((1.0, 0.1), (1.5, 0.05), (3.0, 0.1)):
            g, gp = physical_region_grid(w, step).T
            optimal_attack_scan(0.8, w, step)
            lanes = [np.broadcast(*args[2:]).size for args, _ in calls]
            assert lanes and sum(lanes) <= (g.size + np.count_nonzero(g == gp)) // 2, (w, step)
            calls.clear()

    def test_rate_kernel_sees_one_node_per_antidiagonal(self, monkeypatch):
        # at most 2n - 1 = 1,201 of the 134,651 half-grid nodes
        calls = record_calls(monkeypatch, security, "_keyrate_arrays")
        optimal_attack_scan(0.8, 3.0, 0.01)
        lanes = [np.broadcast(*args[2:]).size for args, _ in calls]
        assert lanes and sum(lanes) <= 2 * 601 - 1

    def test_memory_peak(self):
        # 0.14 MB: one node per antidiagonal, 1,201 nodes at most
        tracemalloc.start()
        try:
            optimal_attack_scan(0.8, 3.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_serialization(self):
        result = optimal_attack_scan(0.7, 1.5, 0.5)
        parsed = json.loads(json_text(result._asdict()))
        assert parsed["T"] == 0.7 and parsed["grid_resolution"] == 0.5
        assert list(parsed) == ["T", "omega", "best_g", "best_g_prime", "R_min", "grid_resolution"]


class TestOneWayBaseline:
    def test_pure_loss_closed_form(self):
        # R1(omega=1) = log2(T / (e (1-T))), confirmed by hand before freezing
        for T in (0.75, 0.8, 0.9, 0.95):
            assert oneway_keyrate(T, 1.0) == pytest.approx(
                np.log2(T / (np.e * (1.0 - T))), abs=5e-6)

    def test_pure_loss_security_edge(self):
        edge = np.e / (1.0 + np.e)  # ~0.7311
        assert oneway_keyrate(edge - 0.01, 1.0) < 0.0
        assert oneway_keyrate(edge + 0.01, 1.0) > 0.0

    def test_general_closed_form(self):
        # R1 = log2(2T / (e (1-T) (Lam+1))) - h(omega) + h(Lam), Lam = T + (1-T) omega
        for T in (0.75, 0.85, 0.95):
            for w in (1.0, 1.3, 2.0):
                lam = T + (1.0 - T) * w
                closed = (np.log2(2.0 * T / (np.e * (1.0 - T) * (lam + 1.0)))
                          - entropic_h(w) + entropic_h(lam))
                assert oneway_keyrate(T, w) == pytest.approx(closed, abs=2e-5)

    def test_modulation_independence(self):
        # finite-mu drift scales like T/(1-T)/mu_A; the bound tracks that growth
        for T in (0.74, 0.8, 0.86, 0.9, 0.95, 0.99):
            for w in (1.0, 1.5, 2.0, 3.0):
                drift = abs(oneway_keyrate(T, w, mu_a=1e8 + 1) - oneway_keyrate(T, w))
                assert drift <= 1e-6 + 1.5 * T / ((1.0 - T) * 1e7)

    def test_threshold_below_two_way_collective(self):
        two, one = threshold_curves(["collective"], [0.75, 0.85, 0.95], with_oneway=True)
        assert two.status.tolist() == one.status.tolist() == [OK, OK, OK]
        assert (one.omega_star < two.omega_star).all()

    def test_curve_insecure_below_edge(self):
        curve = threshold_curves([], [0.6, 0.7, 0.8, 0.9], with_oneway=True)[0]
        assert curve.secure.tolist() == [False, False, True, True]
        assert curve.attack_class == "oneway"

    def test_report_fields(self):
        rep = oneway_report(0.9, 1.2)
        assert set(rep) == {"T", "omega", "I_AB", "chi_EA", "R"}
        assert rep["R"] == pytest.approx(rep["I_AB"] - rep["chi_EA"], abs=1e-12)

    @pytest.mark.parametrize("mu_a, tol", [
        (1.0, 1e-10), (2.0, 1e-10), (11.0, 1e-10), (1e3 + 1.0, 1e-10), (ONEWAY_MU_A, 1e-6)])
    def test_matches_matrix_route_on_grid(self, mu_a, tol):
        for T in np.linspace(0.05, 0.99, 20):
            for w in np.linspace(1.0, 6.0, 11):
                np.testing.assert_allclose(_oneway_quantities(T, w, mu_a),
                                           oneway_quantities_circuit(T, w, mu_a), rtol=0, atol=tol)

    @settings(max_examples=300, deadline=None)
    @given(T=st.floats(0.05, 0.99), omega=st.floats(1.0, 6.0), mu_a=st.floats(1.0, 1e3 + 1.0))
    def test_matches_matrix_route_property(self, T, omega, mu_a):
        i_ab, chi = _oneway_quantities(T, omega, mu_a)
        i_circuit, chi_circuit = oneway_quantities_circuit(T, omega, mu_a)
        assert i_ab == pytest.approx(i_circuit, abs=1e-10)
        # the matrix route snaps symplectic eigenvalues within 1e-9 of 1 to 1
        # (von_neumann_entropy), dropping up to h(1 + 1e-9) = 1.6e-8 bits near omega = 1
        assert chi == pytest.approx(chi_circuit, abs=1e-10 + entropic_h(1.0 + BONA_FIDE_ATOL))

    @settings(max_examples=100, deadline=None)
    @given(T=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
           omega=st.lists(st.floats(1.0, 1e3), min_size=1, max_size=6),
           mu_a=st.floats(1.0, MAX_VARIANCE, exclude_min=True))
    def test_broadcast_quantities_equal_point_calls(self, T, omega, mu_a):
        # the solver's array form over a (T column x omega row) grid, against 0-d calls
        i_ab, chi = _oneway_arrays(np.array(T)[:, None], np.array(omega), mu_a)
        assert i_ab.shape == chi.shape == (len(T), len(omega))
        for i, t in enumerate(T):
            for j, w in enumerate(omega):
                assert (i_ab[i, j], chi[i, j]) == _oneway_quantities(t, w, mu_a)

    @pytest.mark.parametrize("label", [*ATTACK_CLASSES, "oneway"])
    def test_matches_extended_precision(self, label):
        # each class's float rate against the same closed form in 40 digits.  The classes go
        # through their exact gap rows, as threshold, appendix and `keyrate --attack` rate
        # them, to 1e-14 also at T = 1 - 10^-k and omega up to MAX_VARIANCE, where forming
        # w -+ g or 1 - sqrt(T) by subtraction was off by up to 0.33 bits (epr+ at
        # T = 1 - 1e-9, omega = 1e9); the public float triple is held to 1e-13 where it was
        for T in (0.05, 0.3, 0.6, 0.8, 0.9, 0.99, *(1.0 - 10.0 ** -k for k in (3, 6, 9, 12))):
            for w in (1.0, 1.5, 3.0, 6.0, 48.2, 65536.0, MAX_VARIANCE):
                if label == "oneway":
                    rate, exact = oneway_keyrate(T, w), with_dps(mp_oneway_rate, T, w, ONEWAY_MU_A)
                else:
                    gaps = _class_gaps(ATTACK_CLASSES.index(label), w)
                    rate = float(_rate(T, _two_way_arrays(T, w, *gaps)))
                    exact = with_dps(lambda: mp_twoway_rate(T, w, *mp_attack(label, w)))
                    if T <= 0.99 and w <= 6.0:
                        public = keyrate_asymptotic(T, attack_from_class(label, w))
                        assert abs(public - float(exact)) <= 1e-13, (T, w)
                assert abs(rate - float(exact)) <= 1e-14, (T, w)

    @pytest.mark.parametrize("T", [1e-10, 1e-300])
    def test_mutual_information_at_small_T(self, T):
        # the log of the ratio (b+1)/(b_cond+1), next to 1 here, kept 7 to 12 digits
        # at T = 1e-10 and read 0 at T = 1e-300
        for w in (1.0, 1.2, 3.0):
            for mu_a in (ONEWAY_MU_A, 6.0):
                with mp.workdps(350):
                    exact = float(mp_oneway_information(T, w, mu_a))
                i_ab = _oneway_quantities(T, w, mu_a)[0]
                assert abs(i_ab - exact) <= 1e-14 * exact, (w, mu_a)

    def test_zero_modulation_has_zero_rate(self):
        for T in np.linspace(0.01, 0.99, 99):
            for w in np.linspace(1.0, 6.0, 51):
                assert _oneway_quantities(T, w, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("kwargs, error", [
        ({"T": 0.0}, ValueError), ({"T": 1.0}, ValueError),
        ({"omega": 0.5}, ValueError), ({"omega": math.inf}, ValueError),
        ({"omega": math.nan}, ValueError), ({"mu_a": math.inf}, ValueError),
        ({"mu_a": math.nan}, ValueError), ({"mu_a": 0.5}, UnphysicalStateError),
        ({"omega": 2e9}, ValueError), ({"mu_a": 2e9}, ValueError)])
    def test_rejects_bad_input(self, kwargs, error):
        args = {"T": 0.9, "omega": 1.2, "mu_a": ONEWAY_MU_A, **kwargs}
        with pytest.raises(error):
            _oneway_quantities(**args)


def plob_single_use(T, omega):
    """PLOB bound of one use of a thermal-loss channel, in bits per use.

    -log2((1-T) T^nbar) - h(2 nbar + 1) with mean thermal photon number
    nbar = (omega-1)/2, valid for nbar < T/(1-T) (Pirandola, Laurenza,
    Ottaviani & Banchi, Nat. Commun. 8, 15043 (2017)).  At omega = 1 it is
    the pure-loss bound -log2(1-T).
    """
    return -math.log2(1.0 - T) - 0.5 * (omega - 1.0) * math.log2(T) - entropic_h(omega)


class TestCapacityBound:
    """No key rate exceeds what the channel allows.

    Proven: one two-way round uses the channel twice, so its rate is at most
    twice the single-use bound.  The secure rate is at most the collective
    rate, so the collective lanes carry the check; it says nothing about each
    correlated attack alone.  The one-way baseline uses the channel once.
    Measured, not proven: on 200,000 random points (T in [0.01, 0.999],
    nbar < T/(1-T)) the collective rate stayed at least 0.445 bits below the
    single-use bound itself (2.28 bits below twice it), and the one-way rate
    at least 1.21 bits below it.
    """

    # omega = 1 + 2 f T/(1-T) sweeps nbar over [0, T/(1-T)): f = 0 is pure loss
    @settings(max_examples=300, deadline=None)
    @given(T=st.floats(0.01, 0.999), f=st.floats(0.0, 1.0, exclude_max=True))
    @example(T=0.999, f=0.0)  # pure loss at T = 0.999: 0.955 of the single-use bound
    def test_collective_two_way_rate_within_twice_single_use(self, T, f):
        omega = 1.0 + 2.0 * f * T / (1.0 - T)
        rate = keyrate_asymptotic(T, AttackParams(omega, 0.0, 0.0))
        assert rate <= 2.0 * plob_single_use(T, omega)

    @settings(max_examples=300, deadline=None)
    @given(T=st.floats(0.01, 0.999), f=st.floats(0.0, 1.0, exclude_max=True))
    @example(T=0.999, f=0.0)
    def test_oneway_rate_within_single_use(self, T, f):
        omega = 1.0 + 2.0 * f * T / (1.0 - T)
        assert oneway_keyrate(T, omega) <= plob_single_use(T, omega)


class TestClassVariations:
    """The dI_AB and dchi_EA columns of class_variations: sep-sym- against collective."""

    PAIR = (COLLECTIVE, SEP_SYM_NEG)

    def test_degenerate_at_vacuum_noise(self):
        _, omega, _, _, d_i, d_chi = class_variations((0.65,), 1e6, [1.0], self.PAIR)
        assert (omega.tolist(), d_i.tolist(), d_chi.tolist()) == ([1.0], [0.0], [0.0])

    def test_holevo_variation_positive(self):
        d_chi = class_variations((0.65,), 1e6, [1.5, 2.0, 3.0, 5.0], self.PAIR)[5]
        assert all(d_chi > 0.0)

    def test_transmissivity_trend(self):
        omegas = [1.5, 2.0, 3.0, 4.0, 5.0]
        _, _, _, _, d_i, d_chi = class_variations((0.65, 0.95), 1e6, omegas, self.PAIR)
        (di_low, di_high), (dchi_low, dchi_high) = d_i.reshape(2, -1), d_chi.reshape(2, -1)
        for di_lo, dchi_lo, di_hi, dchi_hi in zip(di_low, dchi_low, di_high, dchi_high):
            assert abs(di_hi) < abs(di_lo)
            assert dchi_hi > dchi_lo

    def test_validates_regime(self):
        with pytest.raises(ValueError, match=r"^the asymptotic regime needs mu >= 1e3, got 10.0$"):
            class_variations((0.65,), 10.0, [2.0], self.PAIR)

    @pytest.mark.parametrize("T, mu, omegas, match", [
        (0.65, 2e9, [2.0], "mu must be <= 1e\\+09, got 2000000000.0"),
        (0.65, math.inf, [2.0], "mu must be positive and finite, got inf"),
        (1.5, 1e6, [2.0], "T must lie in \\(0, 1\\), got 1.5"),
        (0.65, 1e6, [2.0, 0.5], "omega must be >= 1 SNU, got 0.5"),
        (0.65, 1e6, [2.0, math.nan], "omega must be finite, got nan"),
        (0.65, 1e6, [2.0, 2e9], "omega must be <= 1e\\+09 SNU, got 2000000000.0")],
        ids=["mu-over-bound", "mu-inf", "T-above-one", "omega-below-one", "omega-nan",
             "omega-over-bound"])
    def test_rejects_out_of_range_input(self, T, mu, omegas, match):
        with pytest.raises(ValueError, match=match):
            class_variations((T,), mu, omegas, self.PAIR)

    @pytest.mark.parametrize("classes, match", [
        (("collective", "bogus", "sep-sym-"), "unknown attack class 'bogus'"),
        (("collective", "epr+"), "reference class 'sep-sym-'")], ids=["unknown", "no-corner"])
    def test_rejects_bad_classes(self, classes, match):
        with pytest.raises(ValueError, match=match):
            class_variations((0.65,), 1e6, [2.0], classes)

    @pytest.mark.parametrize("classes", [("collective", "sep_sym_neg"), ("COLLECTIVE", "sep-sym-")])
    def test_alias_labels_equal_canonical(self, classes):
        alias = class_variations((0.65, 0.95), 1e6, [1.0, 2.0, 3.5], classes)
        canonical = class_variations((0.65, 0.95), 1e6, [1.0, 2.0, 3.5], self.PAIR)
        assert [x.tobytes() for x in alias] == [x.tobytes() for x in canonical]

    def test_matches_point_calls(self):
        # the one array call per grid against the scalar report's information fields
        omegas = [1.0, 1.25, 2.0, 3.5, 5.0]
        for T in (0.3, 0.65, 0.95):
            _, ws, _, _, d_is, d_chis = class_variations((T,), 1e6, omegas, self.PAIR)
            for w, d_i, d_chi, w_ref in zip(ws.tolist(), d_is.tolist(), d_chis.tolist(), omegas):
                coll, corner = AttackParams(w_ref, 0.0, 0.0), attack_from_class("sep-sym-", w_ref)
                (i_c, chi_c), (i_d, chi_d) = ((r.I_AB, r.chi_EA) for r in
                                              (keyrate_report(T, a, 1e6) for a in (coll, corner)))
                assert (w, d_i, d_chi) == (w_ref, (i_d - i_c) / i_c, (chi_d - chi_c) / chi_c)
