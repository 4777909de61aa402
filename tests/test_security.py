import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twowayqkd import (ATTACK_CLASSES, AttackParams, DivergentThresholdError, MonotonicityError,
                       UnphysicalStateError, attack_from_class, excess_noise, holevo_asymptotic,
                       keyrate_asymptotic, mutual_information_asymptotic, omega_from_excess,
                       oneway_keyrate, oneway_report, oneway_threshold_curve,
                       oneway_threshold_omega, optimal_attack_scan, physical_region_grid,
                       relative_variations, scan_grid, threshold_curve, threshold_omega)
from twowayqkd._serialize import Table, csv_table, json_text
from twowayqkd.gaussian import BONA_FIDE_ATOL, MAX_VARIANCE, entropic_h
from twowayqkd.security import (INSECURE_AT_VACUUM, NO_CROSSING, NON_MONOTONE, OK, ONEWAY_MU_A,
                                _bisect_lanes, _oneway_arrays, _oneway_quantities)

from _hiprec import mp_oneway_rate, with_dps
from _util import bisect_threshold, oneway_quantities_circuit


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
            w = float(rng.uniform(1.0, 30.0))
            assert omega_from_excess(t, excess_noise(t, w)) == pytest.approx(w, abs=1e-12)

    def test_validates(self):
        with pytest.raises(ValueError):
            excess_noise(0.0, 2.0)
        with pytest.raises(ValueError):
            excess_noise(0.5, 0.5)
        with pytest.raises(ValueError):
            omega_from_excess(1.0, 0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_excess_noise_rejects_non_finite_omega(self, value):
        with pytest.raises(ValueError, match=f"omega must be finite, got {value}"):
            excess_noise(0.5, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_omega_from_excess_rejects_non_finite_noise(self, value):
        with pytest.raises(ValueError, match=f"N must be finite and >= 0, got {value}"):
            omega_from_excess(0.5, value)


class TestThresholdOmega:
    def test_collective_matches_grid_scan_oracle(self):
        T = 0.9
        w_star = threshold_omega(T, "collective")
        # independent oracle: dense grid locating the sign change
        grid = np.linspace(1.0, 8.0, 20001)
        rates = np.array([keyrate_asymptotic(T, AttackParams(w, 0.0, 0.0)) for w in grid])
        sign_change = np.where(np.diff(np.sign(rates)) < 0)[0]
        assert len(sign_change) == 1
        lo, hi = grid[sign_change[0]], grid[sign_change[0] + 1]
        assert lo <= w_star <= hi
        assert abs(keyrate_asymptotic(T, AttackParams(w_star, 0.0, 0.0))) <= 1e-8

    def test_symmetric_separable_attack_is_stronger_than_collective(self):
        for T in (0.7, 0.9):
            assert threshold_omega(T, "sep-sym-") < threshold_omega(T, "collective")

    def test_no_secure_region_at_low_transmissivity(self):
        assert threshold_omega(1e-3, "collective") is None

    def test_epr_rate_rebound_is_detected(self):
        with pytest.raises(MonotonicityError):
            threshold_omega(0.9, "epr+")


class TestThresholdCurve:
    def test_epr_signs_coincide_pointwise(self):
        grid = [0.4, 0.55, 0.7, 0.85]
        pos = threshold_curve("epr+", grid)
        neg = threshold_curve("epr-", grid)
        for p, q in zip(pos.points, neg.points):
            assert p.secure == q.secure
            if math.isfinite(p.omega_star) and math.isfinite(q.omega_star):
                assert abs(p.omega_star - q.omega_star) <= 1e-8
            else:
                assert repr(p.omega_star) == repr(q.omega_star)

    def test_epr_serializations_byte_identical(self):
        grid = [0.4, 0.55, 0.7, 0.85]
        pos, neg = threshold_curve("epr+", grid), threshold_curve("epr-", grid)
        header = ("T", "omega_star", "N_star", "secure")
        csv = [csv_table(Table(header, tuple(zip(*c.to_rows())))) for c in (pos, neg)]
        assert csv[0] == csv[1]
        assert json_text(pos.to_dict()["points"]) == json_text(neg.to_dict()["points"])

    def test_csv_header_contract(self):
        curve = threshold_curve("collective", [0.5, 0.7, 0.9])
        points = curve.to_dict()["points"]
        assert all(list(p) == ["T", "omega_star", "N_star", "secure"] for p in points)
        assert curve.to_rows() == [tuple(p.values()) for p in points]

    def test_insecure_points_flagged_not_dropped(self):
        curve = threshold_curve("collective", [0.3, 0.5, 0.7, 0.9])
        assert [p.secure for p in curve.points] == [False, False, True, True]
        insecure = curve.points[0]
        assert insecure.omega_star == 1.0 and insecure.N_star == 0.0

    def test_points_satisfy_rate_residual(self):
        curve = threshold_curve("sep-anti+", [0.7, 0.8, 0.9])
        for p in curve.points:
            a = attack_from_class("sep-anti+", p.omega_star)
            assert abs(keyrate_asymptotic(p.T, a)) <= 1e-8

    @pytest.mark.parametrize("label", ["collective", "sep-sym+", "sep-sym-", "sep-anti+"])
    def test_excess_noise_thresholds_nondecreasing(self, label):
        grid = list(np.round(np.arange(0.30, 0.99, 0.02), 10))
        curve = threshold_curve(label, grid)
        n_stars = [p.N_star for p in curve.points]
        assert all(b >= a - 1e-12 for a, b in zip(n_stars, n_stars[1:]))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            threshold_curve("collective", [0.5, 0.4])
        with pytest.raises(ValueError):
            threshold_curve("collective", [])


class TestBatchedSolver:
    # insecure at vacuum noise below T ~ 0.66 (one-way: ~ 0.73), rebounding
    # EPR rates above it, roots for the other classes
    T_GRID = [0.01, 0.2, 0.45, 0.6, 0.66, 0.7, 0.73, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999]

    @staticmethod
    def _oracle(rate):
        try:
            return bisect_threshold(rate), OK
        except DivergentThresholdError:
            return math.inf, NO_CROSSING
        except MonotonicityError:
            return math.nan, NON_MONOTONE

    @pytest.mark.parametrize("label", [*ATTACK_CLASSES, "oneway"])
    def test_roots_equal_scalar_oracle_bit_for_bit(self, label):
        if label == "oneway":
            curve = oneway_threshold_curve(self.T_GRID)
            rates = [lambda w, T=T: oneway_keyrate(T, w) for T in self.T_GRID]
        else:
            curve = threshold_curve(label, self.T_GRID)
            rates = [lambda w, T=T: keyrate_asymptotic(T, attack_from_class(label, w))
                     for T in self.T_GRID]
        statuses = set()
        for p, rate in zip(curve.points, rates):
            root, status = self._oracle(rate)
            if root is None:
                root, status = 1.0, INSECURE_AT_VACUUM
            assert p.status == status
            assert repr(p.omega_star) == repr(root)
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
        assert np.isnan(roots[1:5]).all()
        for i in (0, 5):
            assert roots[i] == bisect_threshold(lane_rates[i])

    def test_single_lane_contract(self):
        def rate(T, label):
            return lambda w: keyrate_asymptotic(T, attack_from_class(label, w))

        assert threshold_omega(0.9, "sep-sym-") == bisect_threshold(rate(0.9, "sep-sym-"))
        assert oneway_threshold_omega(0.9) == bisect_threshold(lambda w: oneway_keyrate(0.9, w))
        assert threshold_omega(0.5, "collective") is None
        assert oneway_threshold_omega(0.7) is None
        with pytest.raises(DivergentThresholdError, match="T=0.999"):
            threshold_omega(0.999, "sep-sym+")
        with pytest.raises(MonotonicityError, match="T=0.9"):
            threshold_omega(0.9, "epr-")

    def test_curve_points_carry_status(self):
        curve = threshold_curve("epr+", [0.5, 0.9])
        assert [p.status for p in curve.points] == [INSECURE_AT_VACUUM, NON_MONOTONE]
        T, omega_star, n_star, secure = curve.to_rows()[1]
        assert math.isnan(omega_star) and math.isnan(n_star) and secure
        assert list(curve.to_dict()["points"][0]) == ["T", "omega_star", "N_star", "secure"]


class TestOptimalAttackScan:
    def test_matches_scalar_brute_force(self):
        T, w, step = 0.8, 1.6, 0.2
        result = optimal_attack_scan(T, w, step)
        rates = [(keyrate_asymptotic(T, AttackParams(w, g, gp)), g, gp)
                 for g, gp in physical_region_grid(w, step).tolist()]
        best = min(rates)
        assert result.R_min == pytest.approx(best[0], abs=1e-12)
        assert (result.best_g, result.best_g_prime) == (best[1], best[2])

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
        # the grid's (0, 0) node takes the kernel's collective reduction, as keyrate does
        for T, w in ((0.5, 2.0), (0.65, 1.5), (0.8, 3.0), (0.95, 2.5)):
            rows = scan_grid(T, w, 0.5)
            g, gp, rate = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)][0]
            assert rate == keyrate_asymptotic(T, AttackParams(w, 0.0, 0.0))

    def test_full_grid_matches_region(self):
        rows = scan_grid(0.7, 1.5, 0.25)
        assert len(rows) == len(physical_region_grid(1.5, 0.25))

    def test_serialization(self):
        result = optimal_attack_scan(0.7, 1.5, 0.5)
        parsed = json.loads(json_text(result.to_dict()))
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
        for T in (0.75, 0.85, 0.95):
            w_one = oneway_threshold_omega(T)
            w_two = threshold_omega(T, "collective")
            assert w_one < w_two

    def test_curve_insecure_below_edge(self):
        curve = oneway_threshold_curve([0.6, 0.7, 0.8, 0.9])
        assert [p.secure for p in curve.points] == [False, False, True, True]
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

    def test_matches_extended_precision(self):
        for T in (0.05, 0.3, 0.6, 0.8, 0.9, 0.99):
            for w in (1.0, 1.5, 3.0, 6.0):
                exact = with_dps(mp_oneway_rate, T, w, ONEWAY_MU_A)
                assert abs(oneway_keyrate(T, w) - float(exact)) <= 1e-7

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


class TestRelativeVariations:
    def test_degenerate_at_vacuum_noise(self):
        rows = relative_variations(0.65, 1e6, [1.0])
        assert rows[0] == (1.0, 0.0, 0.0)

    def test_holevo_variation_positive(self):
        rows = relative_variations(0.65, 1e6, [1.5, 2.0, 3.0, 5.0])
        assert all(d_chi > 0.0 for _, _, d_chi in rows)

    def test_transmissivity_trend(self):
        omegas = [1.5, 2.0, 3.0, 4.0, 5.0]
        low = relative_variations(0.65, 1e6, omegas)
        high = relative_variations(0.95, 1e6, omegas)
        for (_, di_lo, dchi_lo), (_, di_hi, dchi_hi) in zip(low, high):
            assert abs(di_hi) < abs(di_lo)
            assert dchi_hi > dchi_lo

    def test_validates_regime(self):
        with pytest.raises(ValueError):
            relative_variations(0.65, 10.0, [2.0])

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
            relative_variations(T, mu, omegas)

    def test_matches_point_calls(self):
        # the one array call per grid against the scalar information functions
        omegas = [1.0, 1.25, 2.0, 3.5, 5.0]
        for T in (0.3, 0.65, 0.95):
            for (w, d_i, d_chi), w_ref in zip(relative_variations(T, 1e6, omegas), omegas):
                coll, corner = AttackParams(w_ref, 0.0, 0.0), attack_from_class("sep-sym-", w_ref)
                i_c, i_d = (mutual_information_asymptotic(T, a, 1e6)[0] for a in (coll, corner))
                chi_c, chi_d = (holevo_asymptotic(T, a, 1e6) for a in (coll, corner))
                assert (w, d_i, d_chi) == (w_ref, (i_d - i_c) / i_c, (chi_d - chi_c) / chi_c)
