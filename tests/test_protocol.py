import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twowayqkd import (ATTACK_CLASSES, AttackParams, ProtocolParams, UnphysicalAttackError,
                       UnphysicalStateError, attack_from_class, bob_cm, conditional_cm,
                       entropic_h, heterodyne_condition, is_physical, keyrate_asymptotic,
                       keyrate_report, symplectic_spectrum, total_cm, total_cm_circuit,
                       von_neumann_entropy)
from twowayqkd import protocol, security
from twowayqkd.attacks import _class_correlations, _physical_mask, physical_region_grid
from twowayqkd.gaussian import MAX_VARIANCE

from _util import conditioning_deviation, random_physical_attack, record_calls

#: the two checked 0-d two-way entries, keyrate_asymptotic and keyrate_report, each called
#: as fn(T, a, mu)
POINT_FUNCTIONS = (lambda T, a, mu: keyrate_asymptotic(T, a), keyrate_report)


@st.composite
def attacks_around_the_boundary(draw):
    """Attacks with |g|, |g'| up to 1.25 omega, half of them within a relative 1e-8 of
    the bona fide boundary (omega - s g)(omega - s g') = 1, s = +-1."""
    omega = draw(st.floats(1.0, 1e6))
    g = omega * draw(st.floats(-1.25, 1.25))
    if draw(st.booleans()):
        return AttackParams(omega, g, omega * draw(st.floats(-1.25, 1.25)))
    s = draw(st.sampled_from([1.0, -1.0]))
    assume(omega - s * g >= 1e-6)
    g_prime = s * (omega - 1.0 / (omega - s * g)) * (1.0 + draw(st.floats(-1e-8, 1e-8)))
    return AttackParams(omega, g, g_prime)


def random_protocol_params(rng):
    return ProtocolParams(T=float(rng.uniform(0.05, 0.95)),
                          eta=float(rng.uniform(0.05, 0.95)),
                          mu_B=float(rng.uniform(1.0, 20.0)),
                          mu_A=float(rng.uniform(1.0, 20.0)))


class TestProtocolParams:
    @pytest.mark.parametrize("kwargs", [
        dict(T=0.0, eta=0.5, mu_B=2.0, mu_A=2.0),
        dict(T=1.0, eta=0.5, mu_B=2.0, mu_A=2.0),
        dict(T=0.5, eta=1.0, mu_B=2.0, mu_A=2.0),
        dict(T=0.5, eta=0.5, mu_B=0.5, mu_A=2.0),
        dict(T=0.5, eta=0.5, mu_B=2.0, mu_A=0.0),
        # protocol._check_regime's T rule and gaussian._check_variance's finiteness
        dict(T=5e-324, eta=0.5, mu_B=2.0, mu_A=2.0),
        dict(T=0.5, eta=0.5, mu_B=math.inf, mu_A=2.0),
        dict(T=0.5, eta=0.5, mu_B=2.0, mu_A=math.inf),
        # a square past the doubles: total_cm's muB * muB and muA * muA overflow
        dict(T=0.5, eta=0.5, mu_B=1e160, mu_A=2.0),
        dict(T=0.5, eta=0.5, mu_B=2.0, mu_A=1e160),
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("T", 0.0), ("T", 1.0), ("eta", 1.0), ("mu_B", 0.5), ("mu_A", 0.0), ("mu_A", math.nan),
        ("mu_B", 1e160), ("mu_A", 1e160)])
    def test_replace_and_make_check(self, field, value):
        valid = ProtocolParams(T=0.5, eta=0.5, mu_B=2.0, mu_A=2.0)
        with pytest.raises(ValueError, match=f"{field} "):
            valid._replace(**{field: value})
        with pytest.raises(ValueError, match=f"{field} "):
            ProtocolParams._make({**valid._asdict(), field: value}.values())

    def test_large_accepted_variances_give_a_finite_total_cm(self):
        # the largest mu_A of the closed forms' regime (near 1e15), and a mu_B just
        # below sqrt(max double), where muB * muB is still finite
        for p in (ProtocolParams.displacement_limit(0.8, mu=MAX_VARIANCE),
                  ProtocolParams(0.5, 0.5, 1.3e154, 2.0)):
            assert np.isfinite(total_cm(p, AttackParams(1.5, 0.3, -0.2))).all()

    def test_tuple_contract(self):
        p = ProtocolParams(T=0.5, eta=0.5, mu_B=2.0, mu_A=3.0)
        assert p._fields == ("T", "eta", "mu_B", "mu_A")
        assert repr(p) == "ProtocolParams(T=0.5, eta=0.5, mu_B=2.0, mu_A=3.0)"
        assert p._replace(mu_A=1.0) == ProtocolParams(0.5, 0.5, 2.0, 1.0)

    def test_displacement_limit_coupling(self):
        p = ProtocolParams.displacement_limit(0.7, mu=10.0, eta=0.9)
        assert p.mu_B == 11.0
        assert p.mu_A == pytest.approx(10.0 / 0.1 + 1.0, rel=1e-15)

    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -1.0])
    def test_displacement_limit_needs_finite_positive_mu(self, mu):
        with pytest.raises(ValueError, match=f"mu must be positive and finite, got {mu}"):
            ProtocolParams.displacement_limit(0.8, mu=mu)

    @pytest.mark.parametrize("mu, message", [
        (2e9, "mu must be <= 1e\\+09, got 2000000000.0"),
        (1e-300, "T\\*mu must both be at least"),
    ], ids=["over-bound", "underflow"])
    def test_displacement_limit_takes_the_regime_rule(self, mu, message):
        # protocol._check_regime(T, mu), the closed forms' rule; its bound is inclusive
        with pytest.raises(ValueError, match=message):
            ProtocolParams.displacement_limit(0.8, mu=mu)
        assert ProtocolParams.displacement_limit(0.8, mu=MAX_VARIANCE).mu_B == MAX_VARIANCE + 1.0


class TestTotalCm:
    def test_lossless_vacuum_is_identity(self):
        p = ProtocolParams(T=1.0 - 1e-12, eta=0.5, mu_B=1.0, mu_A=1.0)
        a = AttackParams(1.0, 0.0, 0.0)
        np.testing.assert_allclose(total_cm(p, a), np.eye(8), atol=1e-6)

    def test_b1_block_is_bob_variance(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = random_protocol_params(rng)
            a = random_physical_attack(rng)
            V = total_cm(p, a)
            np.testing.assert_allclose(V[:2, :2], p.mu_B * np.eye(2), atol=1e-12)

    def test_matches_circuit_on_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = random_protocol_params(rng)
            a = random_physical_attack(rng)
            np.testing.assert_allclose(total_cm(p, a), total_cm_circuit(p, a), atol=1e-10)

    def test_circuit_returned_mode_variance_anchor(self):
        # direct evaluation: T^2 eta mu_B + T(1-eta) mu_A + (T eta + 1)(1-T) omega
        p = ProtocolParams(T=0.5, eta=0.5, mu_B=3.0, mu_A=3.0)
        a = AttackParams(2.0, 0.0, 0.0)
        eps = 0.25 * 0.5 * 3.0 + 0.5 * 0.5 * 3.0 + (0.25 + 1.0) * 0.5 * 2.0
        assert eps == 2.375
        np.testing.assert_allclose(total_cm_circuit(p, a)[6:, 6:], eps * np.eye(2), atol=1e-12)

    def test_trivial_sources_give_pure_output(self):
        p = ProtocolParams(T=0.5, eta=0.5, mu_B=1.0, mu_A=1.0)
        a = AttackParams(1.0, 0.0, 0.0)
        nu = symplectic_spectrum(total_cm_circuit(p, a))
        np.testing.assert_allclose(nu, np.ones(4), atol=1e-9)


class TestBobAndConditionalCm:
    def test_correlation_block_structure(self):
        p = ProtocolParams(T=0.6, eta=0.99, mu_B=10.0, mu_A=10.0)
        a = AttackParams(2.0, 1.0, 1.0)
        V = bob_cm(p, a)
        theta = p.T * np.sqrt(p.eta * (p.mu_B ** 2 - 1.0))
        np.testing.assert_allclose(V[:2, 2:], theta * np.diag([1.0, -1.0]), atol=1e-12)
        eps = (p.T ** 2 * p.eta * p.mu_B + p.T * (1 - p.eta) * p.mu_A
               + (p.T * p.eta + 1.0) * (1.0 - p.T) * a.omega)
        g_eps = 2.0 * (1.0 - p.T) * np.sqrt(p.eta * p.T)
        np.testing.assert_allclose(V[2:, 2:], (eps + g_eps) * np.eye(2), atol=1e-12)

    def test_conditional_cm_idempotent_at_mu_a_one(self):
        p = ProtocolParams(T=0.7, eta=0.9, mu_B=5.0, mu_A=1.0)
        a = AttackParams(1.5, 0.3, -0.2)
        np.testing.assert_array_equal(conditional_cm(p, a), bob_cm(p, a))

    def test_conditioning_deviation_small_in_limit(self):
        p = ProtocolParams(T=0.65, eta=1.0 - 1e-6, mu_B=1e6, mu_A=1e6)
        a = attack_from_class("sep-sym-", 2.0)
        dev, residual = conditioning_deviation(p, a)
        assert dev < 1e-3
        assert abs(residual - 1.0) < 1e-3

    def test_exact_conditioning_differs_at_finite_eta(self):
        # away from the displacement limit the substitution is only approximate
        p = ProtocolParams(T=0.65, eta=0.7, mu_B=20.0, mu_A=20.0)
        a = attack_from_class("sep-sym-", 2.0)
        dev, _ = conditioning_deviation(p, a)
        assert dev > 1e-3


class TestAsymptoticSpectra:
    def test_collective_reduction_is_exact(self):
        for w in (1.0, 1.1, 1.7, 2.3, 5.0):
            rep = keyrate_report(0.6, AttackParams(w, 0.0, 0.0), 1e6)
            assert rep.nu1 == w and rep.nu2 == w
            assert rep.nubar1 == w

    @settings(max_examples=300, deadline=None)
    @given(T=st.floats(0.01, 0.99), omega=st.floats(1.0, MAX_VARIANCE))
    @example(T=0.5, omega=MAX_VARIANCE)
    def test_collective_spectra_are_omega_bit_for_bit(self, T, omega):
        # the general form sqrt(fl(w*w)) returns w: no collective branch is needed
        c = protocol._two_way_arrays(T, omega, 0.0, 0.0)
        assert struct.pack("<3d", float(c.nu1), float(c.nu2), float(c.nubar1)) == \
            struct.pack("<3d", omega, omega, omega)

    def test_epr_attack_hides_thermal_noise(self):
        rep = keyrate_report(0.5, attack_from_class("epr+", 2.0), 1e6)
        assert abs(rep.nu1 - 1.0) < 1e-12 and abs(rep.nu2 - 1.0) < 1e-12
        assert rep.nu3nu4_product == pytest.approx(0.25e12)

    def test_symmetric_separable_attack_values(self):
        rep = keyrate_report(0.5, attack_from_class("sep-sym-", 2.0), 1e6)
        assert {round(rep.nu1, 12), round(rep.nu2, 12)} == {3.0, 1.0}
        assert rep.nu3nu4_product == pytest.approx(0.25e12)

    def test_conditional_values(self):
        rep = keyrate_report(0.65, attack_from_class("sep-sym-", 2.0), 1e6)
        expected = 2.0 - 2.0 * np.sqrt(0.65) / 1.65
        assert rep.nubar1 == pytest.approx(expected, rel=1e-12)
        assert rep.nubar2 == pytest.approx((1.0 - 0.65 ** 2) * 1e6, rel=1e-15)

    def test_conditional_limit_toward_full_transmission(self):
        # the kernel, not keyrate_report: chi_EA < 0 at mu = 1e6 this close to T = 1
        a = attack_from_class("sep-sym-", 2.0)
        nb1 = protocol._two_way_arrays(1.0 - 1e-9, a.omega, a.g, a.g_prime).nubar1
        assert nb1 == pytest.approx(1.0, abs=1e-4)

    def test_numeric_conditional_spectrum_converges(self):
        for label in ("collective", "epr+", "sep-sym-", "sep-anti+"):
            a = attack_from_class(label, 2.0)
            p = ProtocolParams.displacement_limit(0.65, mu=1e6, eta=1.0 - 1e-6)
            numeric = symplectic_spectrum(conditional_cm(p, a))
            rep = keyrate_report(0.65, a, 1e6)
            expected = np.sort([rep.nubar1, rep.nubar2])[::-1]
            np.testing.assert_allclose(numeric, expected, rtol=1e-3)

    def test_numeric_total_entropy_converges(self):
        # mu and eta chosen so the displacement limit stays representable in float64
        for label in ("collective", "sep-sym+", "sep-sym-", "sep-anti+", "epr+"):
            for T in (0.5, 0.9):
                a = attack_from_class(label, 2.0)
                p = ProtocolParams.displacement_limit(T, mu=1e5, eta=1.0 - 1e-2)
                s_num = von_neumann_entropy(total_cm(p, a))
                s_asy = keyrate_report(T, a, 1e5).S_E
                assert abs(s_num - s_asy) < 1e-2

    def test_unphysical_regime_raises(self):
        with pytest.raises(UnphysicalStateError):
            keyrate_report(0.5, AttackParams(2.0, 1.9, 1.9), 1e6)

    @pytest.mark.parametrize("g, g_prime, check", [
        # |g'| >= omega, although (omega - g)(omega - g') = 125 is a bona fide radicand
        (5.0, -15.0, "positive definiteness"),
        # |g|, |g'| < omega, but (omega - g)(omega - g') = 0.0005
        (9.95, 9.99, "the bona fide condition"),
        (-15.0, 5.0, "positive definiteness"),
    ], ids=["g-prime-outside", "bona-fide", "g-outside"])
    def test_unphysical_attack_message(self, g, g_prime, check):
        # every 0-d function names the condition the attack violates, through require_physical
        a = AttackParams(10.0, g, g_prime)
        for fn in POINT_FUNCTIONS:
            with pytest.raises(UnphysicalAttackError, match=f"^attack {re.escape(str(a))} "
                                                            f"violates {check}"):
                fn(0.5, a, 1e6)

    def test_kernel_leaves_physicality_to_its_callers(self):
        # on |g|, |g'| <= omega the broadcasting kernel floors squared spectra at 1 and
        # raises nothing; its physical lanes equal the 0-d function bit for bit
        rates = protocol._keyrate_arrays(0.5, 10.0, np.array([0.0, 9.95]), np.array([0.0, 9.99]))
        assert np.isfinite(rates).all()
        assert rates[0] == keyrate_asymptotic(0.5, AttackParams(10.0, 0.0, 0.0))

    @settings(max_examples=300, deadline=None)
    @given(T=st.floats(0.01, 0.99), a=attacks_around_the_boundary(), mu=st.floats(1e3, 1e9))
    @example(T=0.5, a=AttackParams(2.0, 5.0, 5.0), mu=1e6)
    @example(T=0.8, a=attack_from_class("epr+", 3e4), mu=1e6)
    @example(T=0.5, a=AttackParams(10.0, -30.0, -30.0), mu=1e6)
    def test_point_functions_raise_exactly_for_unphysical_attacks(self, T, a, mu):
        # the examples: |g| >= omega with sigma > 0; the epr+ float rounding past the
        # pure state; |g| >= omega with sigma < 0
        if is_physical(a):
            for fn in POINT_FUNCTIONS:
                fn(T, a, mu)
        else:
            for fn in POINT_FUNCTIONS:
                with pytest.raises(UnphysicalAttackError):
                    fn(T, a, mu)


class TestInformationQuantities:
    def test_holevo_pure_loss(self):
        T, mu = 0.7, 1e6
        chi = keyrate_report(T, AttackParams(1.0, 0.0, 0.0), mu).chi_EA
        assert chi == pytest.approx(np.log2(0.5 * np.e * (1 - T) / (1 + T) * mu), rel=1e-14)

    def test_holevo_is_entropy_difference(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            a = random_physical_attack(rng)
            T, mu = float(rng.uniform(0.1, 0.95)), 1e6
            rep = keyrate_report(T, a, mu)
            diff = rep.S_E - rep.S_E_cond
            assert abs(rep.chi_EA - diff) < 1e-12

    def test_mutual_information_near_full_transmission(self):
        # the closed form: keyrate_report's consistency check rejects this point
        # (chi_EA < 0 at T -> 1)
        T, mu = 1.0 - 1e-9, 1e6
        c = protocol._two_way_at(T, AttackParams(2.0, 0.5, -0.5), mu)
        iab, sigma, sigma_p = float(protocol._information(T, c, mu)[0]), c.sigma, c.sigma_prime
        assert sigma == pytest.approx(2.0, abs=1e-6)
        assert sigma_p == pytest.approx(2.0, abs=1e-6)
        assert iab == pytest.approx(np.log2(mu / 2.0), abs=1e-6)

    def test_mutual_information_pure_loss_value(self):
        rep = keyrate_report(0.9, AttackParams(1.0, 0.0, 0.0), 1e6)
        iab, sigma, sigma_p, delta = rep.I_AB, rep.sigma, rep.sigma_prime, rep.Delta
        assert sigma == 2.0 and sigma_p == 2.0 and delta == 2.0
        assert iab == pytest.approx(0.5 * np.log2(0.81e12 / 4.0), rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(label=st.sampled_from(ATTACK_CLASSES),
           T=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
           omega=st.lists(st.floats(1.0, 50.0), min_size=1, max_size=6),
           mu=st.floats(1e3, MAX_VARIANCE))
    def test_broadcast_information_equals_point_calls(self, label, T, omega, mu):
        # a (T column x omega row) grid in one call, against the 0-d public report
        w = np.array(omega)
        g, g_prime = _class_correlations(ATTACK_CLASSES.index(label), w)
        t = np.array(T)[:, None]
        iab, chi = protocol._information(t, protocol._two_way_arrays(t, w, g, g_prime), mu)
        assert iab.shape == chi.shape == (len(T), len(omega))
        for i, t in enumerate(T):
            for j, a in enumerate(AttackParams(*x) for x in zip(omega, g.tolist(),
                                                                 g_prime.tolist())):
                rep = keyrate_report(t, a, mu)
                assert (iab[i, j], chi[i, j]) == (rep.I_AB, rep.chi_EA)

    def test_information_rejects_nonpositive_sigma(self, monkeypatch):
        # |g| >= omega, where a custom g reaches sigma < 0: rejected before the closed form
        monkeypatch.setattr(protocol, "_two_way_arrays",
                            lambda *args: pytest.fail("closed form evaluated"))
        with pytest.raises(UnphysicalAttackError, match="positive definiteness"):
            keyrate_report(0.5, AttackParams(10.0, -30.0, -30.0), 1e6)

    def test_every_scalar_function_rejects_nonpositive_sigma(self):
        # the squared spectra are >= 1 here (1600, 400 and 334.2...) and sigma = sigma' =
        # -12.46...; |g|, |g'| >= omega is what every function names
        a = AttackParams(10, -30, -30)
        for fn in POINT_FUNCTIONS:
            with pytest.raises(UnphysicalAttackError, match="positive definiteness"):
                fn(0.5, a, 1e6)

    @pytest.mark.parametrize("T, mu", [(1e-300, 1e6), (0.5, 1e-300), (1e-155, 1e9),
                                       (0.5, 2.9e-154)])
    def test_rejects_underflowing_T_mu(self, T, mu):
        # T^2 mu^2 in I_AB leaves the normal doubles: it read -inf, or lost digits
        with pytest.raises(ValueError, match="T and T\\*mu must both be at least 1.49e-154"):
            keyrate_report(T, AttackParams(1.0, 0.0, 0.0), mu)

    def test_rejects_underflowing_one_minus_T_mu(self):
        # (1-T)^2 mu^2 in S_E underflowed to 0: the total entropy raised a bare
        # "math domain error" and keyrate_report an inconsistent-report verdict
        a = AttackParams(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="\\(1-T\\)\\*mu must be at least 1.49e-154"):
            keyrate_report(0.999999999, a, 1.6e-154)
        # (1-T) mu = sqrt(tiny) exactly: accepted, and the square is still normal (the report
        # itself rejects this point, since chi_EA < 0 at so small a modulation, so the
        # closed form is read)
        mu = 2.0 * protocol._SQRT_TINY
        protocol._check_regime(0.5, mu)
        assert math.isfinite(protocol._information(0.5, protocol._two_way_at(0.5, a, mu), mu)[1])
        assert (1.0 - 0.5) ** 2 * mu * mu == protocol._SQRT_TINY ** 2 > 0.0

    def test_smallest_accepted_T_mu_is_exact(self):
        # T = T*mu = sqrt(tiny): T^2 mu^2 = tiny, still normal, so I_AB = log2(T mu) - 1
        T = protocol._SQRT_TINY
        iab = keyrate_report(T, AttackParams(1.0, 0.0, 0.0), 1.0).I_AB
        assert iab == pytest.approx(math.log2(T) - 1.0, rel=1e-15)

    def test_mutual_information_decreases_with_noise(self):
        vals = [keyrate_report(0.65, attack_from_class("sep-sym-", w), 1e6).I_AB
                for w in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestKeyRate:
    def test_pure_loss_spot_value(self):
        r = keyrate_asymptotic(0.9, AttackParams(1.0, 0.0, 0.0))
        assert abs(r - np.log2(0.9 * 1.9 / (np.e * 0.1))) < 1e-12

    def test_broadcast_kernel_equals_scalar_rate(self):
        # one call over lanes of different (T, w, g, g'), collective lanes included
        rng = np.random.default_rng(59)
        attacks = [random_physical_attack(rng) for _ in range(40)]
        attacks += [AttackParams(float(w), 0.0, 0.0) for w in rng.uniform(1.0, 6.0, 40)]
        T = rng.uniform(0.05, 0.99, len(attacks))
        lanes = protocol._keyrate_arrays(T, *np.array([[a.omega, a.g, a.g_prime]
                                                      for a in attacks]).T)
        for t, a, r in zip(T.tolist(), attacks, lanes.tolist()):
            assert r == keyrate_asymptotic(t, a)
            if a.g == 0.0:
                # collective lanes: nu1 = nu2 = nubar1 = omega and sigma = sigma' = Delta
                # exactly, so the entropy term (h + h) - h is h(omega) with no rounding
                delta = 1.0 + t * t + (1.0 - t * t) * a.omega
                assert r == float(np.log2(2.0 * t * (1.0 + t) / (np.e * (1.0 - t) * delta))
                                  - entropic_h(a.omega))

    @settings(max_examples=300, deadline=None)
    @given(T=st.floats(0.01, 0.99), omega=st.floats(1.0, 6.0), u=st.floats(-1.0, 1.0),
           v=st.floats(-1.0, 1.0))
    @example(T=0.5, omega=1.0, u=1e-9, v=1e-9)  # on is_physical's floor (1 - 1e-9)^2
    def test_rate_symmetric_in_the_correlations(self, T, omega, u, v):
        g, gp = u * omega, v * omega
        assume(_physical_mask(omega, g, gp))
        bits = lambda a, b: struct.pack("<d", protocol._keyrate_arrays(T, omega, a, b))
        assert bits(g, gp) == bits(gp, g)

    @settings(max_examples=100, deadline=None)
    @given(T=st.floats(0.01, 0.999), omega=st.floats(1.0, 8.0), nodes=st.integers(1, 40))
    @example(T=0.5, omega=1.0, nodes=1)
    def test_grid_rates_symmetric_in_the_correlations(self, T, omega, nodes):
        # bit for bit on whole grids, as optimal_attack_scan's half grid relies on
        g, gp = physical_region_grid(omega, omega / nodes).T
        assert (protocol._keyrate_arrays(T, omega, g, gp).tobytes()
                == protocol._keyrate_arrays(T, omega, gp, g).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(label=st.sampled_from(["collective", "sep-sym+", "sep-sym-", "sep-anti+",
                                  "sep-anti-"]),
           T=st.floats(0.01, 0.99), w1=st.floats(1.0, 50.0 - 1e-3), step=st.floats(1e-3, 49.0))
    def test_rate_falls_strictly_with_omega(self, label, T, w1, step):
        # the EPR classes rebound near T = 1 and are left out
        w2 = w1 + step
        assume(w2 <= 50.0)
        index = ATTACK_CLASSES.index(label)
        rates = [protocol._keyrate_arrays(T, w, *_class_correlations(index, w)) for w in (w1, w2)]
        assert rates[1] < rates[0]

    def test_epr_signs_equivalent(self):
        for T in (0.3, 0.65, 0.9):
            for w in (1.2, 2.0, 4.0):
                r_pos = keyrate_asymptotic(T, attack_from_class("epr+", w))
                r_neg = keyrate_asymptotic(T, attack_from_class("epr-", w))
                assert abs(r_pos - r_neg) <= 1e-9

    def test_rate_equals_information_difference(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            a = random_physical_attack(rng)
            T = float(rng.uniform(0.1, 0.95))
            r = keyrate_asymptotic(T, a)
            rep = keyrate_report(T, a, 1e6)
            assert abs(r - (rep.I_AB - rep.chi_EA)) < 1e-9

    def test_modulation_independence(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            a = random_physical_attack(rng)
            T = float(rng.uniform(0.1, 0.95))
            r5, r7 = (rep.I_AB - rep.chi_EA for rep in (keyrate_report(T, a, mu)
                                                         for mu in (1e5, 1e7)))
            assert abs(r5 - r7) <= 1e-9

    def test_quadrature_swap_symmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            a = random_physical_attack(rng)
            swapped = AttackParams(a.omega, a.g_prime, a.g)
            T = float(rng.uniform(0.1, 0.95))
            assert keyrate_asymptotic(T, a) == pytest.approx(
                keyrate_asymptotic(T, swapped), abs=1e-12)

    def test_report_fields_and_invariants(self):
        a = attack_from_class("sep-sym-", 2.0)
        rep = keyrate_report(0.65, a, mu=1e6)
        assert abs(rep.R - (rep.I_AB - rep.chi_EA)) <= 1e-10
        assert rep.chi_EA >= -1e-9
        assert list(rep._asdict()) == [
            "nu1", "nu2", "nu3nu4_product", "nubar1", "nubar2", "S_E", "S_E_cond",
            "I_AB", "chi_EA", "R", "sigma", "sigma_prime", "Delta"]
        assert type(rep._asdict()) is dict and list(rep._asdict()) == list(rep._fields)
        assert rep.nu1 == pytest.approx(3.0, rel=1e-12)
        assert rep.nu2 == pytest.approx(1.0, abs=1e-12)

    def test_report_fields_equal_siblings_and_closed_forms(self):
        # the one-pass report, field by field and bit for bit, against its scalar sibling
        # keyrate_asymptotic, the broadcasting kernel and the closed expressions of the
        # log(mu) terms
        rng = np.random.default_rng(61)
        attacks = [attack_from_class(c, w) for c in ATTACK_CLASSES for w in (1.0, 1.7, 4.0)]
        attacks += [random_physical_attack(rng) for _ in range(30)]
        bits = lambda fields: {k: struct.pack("<d", v) for k, v in fields.items()}
        for a in attacks:
            T, mu = float(rng.uniform(0.05, 0.99)), float(10.0 ** rng.uniform(3.0, 9.0))
            c = protocol._two_way_arrays(T, a.omega, a.g, a.g_prime)
            product, nubar2 = (1.0 - T) ** 2 * mu * mu, (1.0 - T * T) * mu
            iab, chi = map(float, protocol._information(T, c, mu))
            alone = dict(nu1=float(c.nu1), nu2=float(c.nu2), nu3nu4_product=product,
                         nubar1=float(c.nubar1), nubar2=nubar2,
                         S_E=float(c.S) + math.log2(0.25 * np.e * np.e * product),
                         S_E_cond=float(c.S_cond) + math.log2(0.5 * np.e * nubar2), I_AB=iab,
                         chi_EA=chi, R=keyrate_asymptotic(T, a), sigma=float(c.sigma),
                         sigma_prime=float(c.sigma_prime), Delta=float(c.Delta))
            assert bits(keyrate_report(T, a, mu)._asdict()) == bits(alone), (T, a, mu)

    def test_one_entropy_call_per_evaluation(self, monkeypatch):
        calls = [record_calls(monkeypatch, m, "entropic_h") for m in (protocol, security)]

        def taken():
            """Calls since the last look, through either module."""
            count = sum(map(len, calls))
            for c in calls:
                c.clear()
            return count
        keyrate_report(0.65, attack_from_class("sep-sym-", 2.0), mu=1e6)
        assert taken() == 1
        # collective and correlated lanes in one kernel call
        protocol._keyrate_arrays(np.array([0.5, 0.8, 0.9]), 2.0, np.array([0.0, -1.0, 0.5]),
                                 np.array([0.0, -1.0, -0.5]))
        assert taken() == 1
        security._oneway_arrays(np.array([0.5, 0.9]), np.array([1.0, 3.0]), security.ONEWAY_MU_A)
        assert taken() == 1

    def test_report_rejects_inconsistent_rate(self, monkeypatch):
        # raised errors, not asserts, so the check survives python -O
        # the one-pass report takes I_AB and chi_EA from protocol._information
        a = attack_from_class("sep-sym-", 2.0)
        rep = keyrate_report(0.65, a, mu=1e6)
        iab, chi = rep.I_AB, rep.chi_EA
        monkeypatch.setattr(protocol, "_information", lambda T, c, mu: (iab, chi + 1e-6))
        with pytest.raises(UnphysicalStateError, match="inconsistent"):
            keyrate_report(0.65, a, mu=1e6)

    def test_report_rejects_negative_holevo_bound(self, monkeypatch):
        # and R from protocol._rate
        a = attack_from_class("sep-sym-", 2.0)
        iab = keyrate_report(0.65, a, mu=1e6).I_AB
        monkeypatch.setattr(protocol, "_information", lambda T, c, mu: (iab, -1.0))
        monkeypatch.setattr(protocol, "_rate", lambda T, c: iab + 1.0)
        # a negative Holevo bound says (T, mu) lies outside the closed form's asymptotic
        # regime, not that the state is unphysical
        with pytest.raises(ValueError, match=re.escape("(1-T)*mu = 350000.0")) as exc:
            keyrate_report(0.65, a, mu=1e6)
        assert "asymptotic regime" in str(exc.value)
        assert not isinstance(exc.value, UnphysicalStateError)


class TestExactEntanglementBasedOracle:
    """Recompute the rate from the total covariance matrix alone.

    Mutual information from exact heterodyne conditioning (the returned mode
    given Bob's reference measurement, with and without Alice's), the Holevo
    bound from exact conditional entropies.  At a finite displacement limit
    the closed forms must agree up to the O(1-eta) bias, and the bias must
    shrink as eta approaches 1.
    """

    @staticmethod
    def _exact_rate(T, a, mu, eta):
        p = ProtocolParams.displacement_limit(T, mu=mu, eta=eta)
        V = total_cm(p, a)
        chi = (von_neumann_entropy(V)
               - von_neumann_entropy(heterodyne_condition(V, measured=1)))
        v_b = heterodyne_condition(V, measured=0)        # modes A, A'', B2
        v_ba = heterodyne_condition(V, measured={0, 1})  # modes A'', B2
        iab = (0.5 * np.log2((v_b[4, 4] + 1.0) / (v_ba[2, 2] + 1.0))
               + 0.5 * np.log2((v_b[5, 5] + 1.0) / (v_ba[3, 3] + 1.0)))
        return iab - chi

    def test_closed_form_agrees_with_exact_simulation(self):
        worst = 0.0
        for label in ("collective", "sep-sym-", "sep-anti+", "epr+"):
            for T in (0.5, 0.65, 0.9):
                a = attack_from_class(label, 2.0)
                gap = abs(self._exact_rate(T, a, 1e4, 1.0 - 1e-2) - keyrate_asymptotic(T, a))
                worst = max(worst, gap)
        assert worst < 5e-2

    def test_bias_shrinks_toward_displacement_limit(self):
        a = attack_from_class("sep-sym-", 2.0)
        r = keyrate_asymptotic(0.65, a)
        far = abs(self._exact_rate(0.65, a, 1e4, 1.0 - 3e-2) - r)
        near = abs(self._exact_rate(0.65, a, 1e4, 1.0 - 1e-2) - r)
        assert near < far

    def test_corner_is_not_the_minimizer(self):
        # at the corner g = g' = 1-w one symplectic eigenvalue is exactly 1,
        # where h has a log-singular slope: an inward step lowers the rate
        corner, inner = AttackParams(2.0, -1.0, -1.0), AttackParams(2.0, -0.86, -0.86)
        assert (self._exact_rate(0.65, inner, 1e4, 1.0 - 1e-2)
                < self._exact_rate(0.65, corner, 1e4, 1.0 - 1e-2) - 0.02)
        for T in (0.5, 0.65, 0.8, 0.95):
            for w in (1.5, 2.0, 3.0):
                c = 1.0 - w
                assert (keyrate_asymptotic(T, AttackParams(w, c + 1e-4, c + 1e-4))
                        < keyrate_asymptotic(T, AttackParams(w, c, c))), (T, w)
