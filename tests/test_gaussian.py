import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twowayqkd import (AttackParams, UnphysicalStateError,
                       apply_symplectic, beam_splitter, entropic_h, epr_cm, eve_cm,
                       heterodyne_condition, is_bona_fide, is_symplectic,
                       partial_trace, ppt_separable, symplectic_form, symplectic_spectrum,
                       tensor, thermal_cm, vacuum_cm, von_neumann_entropy)
from twowayqkd.gaussian import _NU_SERIES
from _hiprec import mp_entropic_h, with_dps
from _util import random_beam_splitter_net, random_bona_fide_cm, spectrum_from_eig


class TestSymplecticForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_block_structure(self):
        Om = symplectic_form(2)
        np.testing.assert_array_equal(Om[:2, :2], [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(Om[2:, 2:], [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(Om[:2, 2:], np.zeros((2, 2)))

    def test_squares_to_minus_identity(self):
        Om = symplectic_form(3)
        np.testing.assert_array_equal(Om @ Om, -np.eye(6))

    @pytest.mark.parametrize("n", [0, -1, 1.5])
    def test_rejects_bad_mode_count(self, n):
        with pytest.raises(ValueError):
            symplectic_form(n)


class TestConstructorsRejectBadInput:
    # every constructor takes symplectic_form's mode-count check; a non-finite variance
    # fails by name rather than yielding a NaN or infinite matrix
    @pytest.mark.parametrize("build, message", [
        (lambda: thermal_cm(2.0, 0), "mode count must be a positive integer, got 0"),
        (lambda: vacuum_cm(1.5), "mode count must be a positive integer, got 1.5"),
        (lambda: thermal_cm(2.0, 1.5), "mode count must be a positive integer, got 1.5"),
        (lambda: epr_cm(np.nan), "EPR variance must be finite, got nan"),
        (lambda: thermal_cm(np.nan), "thermal variance must be finite, got nan"),
        # a bool is not a mode count, as it is not a mode index
        (lambda: vacuum_cm(True), "mode count must be a positive integer, got True"),
        (lambda: thermal_cm(2.0, True), "mode count must be a positive integer, got True"),
        (lambda: symplectic_form(True), "mode count must be a positive integer, got True"),
        (lambda: beam_splitter(0.5, (0, 1), True),
         "mode count must be a positive integer, got True"),
    ], ids=["thermal-zero-modes", "vacuum-fractional-modes", "thermal-fractional-modes",
            "epr-nan", "thermal-nan", "vacuum-bool-modes", "thermal-bool-modes",
            "symplectic-form-bool-modes", "beam-splitter-bool-modes"])
    def test_raises_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _with_entry(value):
    # a two-mode vacuum with value in its (0, 0) entry; still symmetric
    V = np.eye(4)
    V[0, 0] = value
    return V


class TestNonFiniteMatrices:
    # every public function that takes a matrix rejects NaN and +-inf by name, before any
    # linear algebra; warnings are errors in this suite, so none may be emitted on the way
    CALLS = {
        "symplectic_spectrum": (symplectic_spectrum, "covariance"),
        "is_bona_fide": (is_bona_fide, "covariance"),
        "von_neumann_entropy": (von_neumann_entropy, "covariance"),
        "ppt_separable": (ppt_separable, "covariance"),
        "heterodyne_condition": (lambda M: heterodyne_condition(M, 1), "covariance"),
        "partial_trace": (lambda M: partial_trace(M, 0), "covariance"),
        "tensor": (lambda M: tensor(np.eye(2), M), "covariance"),
        "is_symplectic": (is_symplectic, "symplectic"),
        "apply_symplectic-S": (lambda M: apply_symplectic(M, np.eye(4)), "symplectic"),
        "apply_symplectic-V": (lambda M: apply_symplectic(np.eye(4), M), "covariance"),
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", CALLS)
    def test_raises_value_error_naming_the_matrix(self, call, value):
        fn, kind = self.CALLS[call]
        with pytest.raises(ValueError, match=f"^{kind} matrix must be finite"):
            fn(_with_entry(value))


class TestModeIndices:
    # one parser reads every mode index: Python or numpy integers, distinct and in range
    V = tensor(thermal_cm(1.5), epr_cm(2.0), thermal_cm(3.0))

    @pytest.mark.parametrize("call, message", [
        (lambda V: partial_trace(V, 0.7), "^keep must be integer mode indices, got 0.7"),
        (lambda V: partial_trace(V, True), "^keep must be integer mode indices, got True"),
        (lambda V: partial_trace(V, np.array([0.0, 1.0])), "^keep must be integer mode indices"),
        (lambda V: heterodyne_condition(V, 1.5), "^measured must be integer mode indices"),
        (lambda V: heterodyne_condition(V, (1, 1)),
         r"^measured must be distinct mode indices in range\(4\), got \(1, 1\)"),
        (lambda V: beam_splitter(0.5, (0, 1), 1.5), "^mode count must be a positive integer"),
        (lambda V: beam_splitter(0.5, (0.5, 1), 2), "^modes must be integer mode indices"),
        (lambda V: beam_splitter(0.5, (0, 1, 2), 3), "^modes must be two mode indices"),
        (lambda V: beam_splitter(0.5, 1, 2), "^modes must be two mode indices"),
    ], ids=["keep-float", "keep-bool", "keep-float-array", "measured-float",
            "measured-repeated", "splitter-fractional-n", "splitter-float-mode",
            "splitter-three-modes", "splitter-one-mode"])
    def test_invalid_raises_value_error_naming_the_argument(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(self.V)

    @pytest.mark.parametrize("keep, idx", [
        (2, [4, 5]),
        (np.int64(3), [6, 7]),
        (np.array([3, 0]), [6, 7, 0, 1]),
        ({0, 1}, [0, 1, 2, 3]),
        ((1, 0), [2, 3, 0, 1]),
    ], ids=["int", "numpy-int", "ndarray", "set", "reordered"])
    def test_partial_trace_index_forms(self, keep, idx):
        assert partial_trace(self.V, keep).tobytes() == self.V[np.ix_(idx, idx)].tobytes()

    @pytest.mark.parametrize("measured", [{2, 0}, np.array([2, 0]), (np.int64(2), 0), [0, 2]],
                             ids=["set", "ndarray", "numpy-int", "list"])
    def test_heterodyne_index_forms_are_sorted(self, measured):
        expected = heterodyne_condition(self.V, (0, 2)).tobytes()
        assert heterodyne_condition(self.V, measured).tobytes() == expected

    def test_beam_splitter_index_forms(self):
        i, j = np.random.default_rng(2).choice(4, 2, replace=False)
        expected = beam_splitter(0.3, (int(i), int(j)), 4).tobytes()
        for modes in ((i, j), np.array([i, j]), [int(i), j]):
            assert beam_splitter(0.3, modes, np.int64(4)).tobytes() == expected


class TestSymplecticSpectrum:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_spectrum(np.eye(4)), [1.0, 1.0], atol=1e-14)

    def test_thermal(self):
        np.testing.assert_allclose(symplectic_spectrum(np.diag([2.0, 2.0])), [2.0], atol=1e-14)

    def test_eve_epr_state_is_pure(self):
        # closed form for [[wI, G], [G, wI]]: nu^2 = w^2 + g g' +- w |g + g'|
        w, g, gp = 2.0, np.sqrt(3.0), -np.sqrt(3.0)
        V = eve_cm(AttackParams(w, g, gp))
        expected = np.sqrt(np.array([
            w * w + g * gp + w * abs(g + gp),
            w * w + g * gp - w * abs(g + gp),
        ]))
        np.testing.assert_allclose(expected, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(symplectic_spectrum(V), expected, atol=1e-9)
        # independent dense eigensolver route on the same matrix
        np.testing.assert_allclose(spectrum_from_eig(V), expected, atol=1e-9)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(UnphysicalStateError):
            symplectic_spectrum(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        V = np.eye(4)
        V[0, 1] = 1e-6
        with pytest.raises(ValueError):
            symplectic_spectrum(V)

    def test_routes_agree_on_random_states(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(20):
                V = random_bona_fide_cm(rng, n)
                np.testing.assert_allclose(
                    symplectic_spectrum(V), spectrum_from_eig(V), atol=1e-8, rtol=1e-8)

    def test_descending_order(self):
        V = tensor(thermal_cm(1.3), thermal_cm(3.7), thermal_cm(2.1))
        nu = symplectic_spectrum(V)
        assert np.all(np.diff(nu) <= 0)
        np.testing.assert_allclose(nu, [3.7, 2.1, 1.3], atol=1e-12)


class TestEntropicH:
    def test_pure_limit(self):
        assert entropic_h(1.0) == 0.0

    def test_exact_value_at_three(self):
        assert entropic_h(3.0) == 2.0

    def test_matches_asymptotic_form_at_large_nu(self):
        assert abs(entropic_h(1e6) - np.log2(0.5 * np.e * 1e6)) < 1e-6

    def test_clamps_dust_below_one(self):
        assert entropic_h(1.0 - 5e-10) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            entropic_h(1.0 - 1e-8)

    def test_vectorized(self):
        np.testing.assert_allclose(entropic_h(np.array([1.0, 3.0])), [0.0, 2.0], atol=0)

    def test_strictly_increasing(self):
        grid = np.geomspace(1.0 + 1e-12, 1e6, 400)
        vals = entropic_h(grid)
        assert np.all(np.diff(vals) > 0)

    def test_matches_extended_precision(self):
        # log-spaced in nu - 1 and in nu, plus the stretch where the two forms meet
        rng = np.random.default_rng(3)
        nus = np.concatenate([1.0 + np.geomspace(1e-12, 1e9 - 1.0, 2000),
                              np.geomspace(1.0 + 1e-12, 1e9, 2000), rng.uniform(1.25, 4.0, 200)])
        exact = with_dps(lambda: [mp_entropic_h(mp.mpf(float(x))) for x in nus])
        worst = max(abs(mp.mpf(float(h)) / e - 1) for h, e in zip(entropic_h(nus), exact))
        assert worst <= 1e-15, f"largest relative error {float(worst):.3g}"
        assert entropic_h(1.0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(1.0, 1e9))
    @example(x=1.7)  # the xlogy form gave h(1.7000000000000002) < h(1.7)
    @example(x=float(np.nextafter(_NU_SERIES, 0.0)))  # the last float of the log1p form
    @example(x=327880392.0625)  # the log1p form alone steps down here
    def test_never_steps_down(self, x):
        assert entropic_h(np.nextafter(x, np.inf)) >= entropic_h(x)

    def test_infinity(self):
        # no inf - inf or 0 * inf on the way (RuntimeWarnings are errors here)
        assert entropic_h(np.inf) == np.inf

    @pytest.mark.parametrize("case", ["near", "far", "mixed", "inf"])
    def test_stack_equals_rows_and_points(self, case):
        # each form runs on its own lanes only; a (3, n) stack, its rows and
        # the 0-d calls give the same bits
        rng = np.random.default_rng(5)
        near = 1.0 + rng.uniform(0.0, 0.5, (3, 40))
        near[0, 0], near[1, 0] = 1.0, np.nextafter(_NU_SERIES, 0.0)
        far = _NU_SERIES * np.geomspace(1.0, 1e8, 120).reshape(3, 40)
        stack = {"near": near, "far": far,
                 "mixed": np.where(rng.random((3, 40)) < 0.5, near, far),
                 "inf": np.where(rng.random((3, 40)) < 0.2, np.inf, far)}[case]
        out = entropic_h(stack)
        assert out.shape == stack.shape
        assert out.tobytes() == np.stack([entropic_h(row) for row in stack]).tobytes()
        assert out.tolist() == [[entropic_h(float(x)) for x in row] for row in stack]

    def test_never_steps_down_across_the_switch(self):
        # 10^4 adjacent floats on each side of the switch from the log1p form to the series
        nus = _NU_SERIES + np.arange(-10 ** 4, 10 ** 4 + 1) * np.spacing(_NU_SERIES)
        assert np.all(np.diff(entropic_h(nus)) >= 0.0)

    def test_asymptotic_values(self):
        # h(nu) = log2((e/2) nu) + O(1/nu)
        assert abs(entropic_h(1e6) - np.log2(0.5 * np.e * 1e6)) < 1e-6


class TestVonNeumannEntropy:
    def test_vacuum_is_pure(self):
        assert von_neumann_entropy(np.eye(6)) == 0.0

    def test_single_mode_thermal(self):
        assert abs(von_neumann_entropy(np.diag([3.0, 3.0])) - 2.0) < 1e-12

    @pytest.mark.parametrize("mu", [1.0, 1.5, 4.0, 100.0])
    def test_epr_state_is_pure(self, mu):
        assert abs(von_neumann_entropy(epr_cm(mu))) < 1e-9

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError):
            von_neumann_entropy(np.diag([0.5, 0.5]))


class TestHeterodyneCondition:
    def test_epr_projects_remote_arm_on_coherent_state(self):
        for mu in (1.0, 2.0, 10.0, 1e4):
            out = heterodyne_condition(epr_cm(mu), measured=0)
            np.testing.assert_allclose(out, np.eye(2), atol=1e-9)

    def test_product_state_unchanged(self):
        V = np.diag([1.7, 1.7, 2.9, 2.9])
        np.testing.assert_allclose(heterodyne_condition(V, measured=1), np.diag([1.7, 1.7]), atol=0)

    def test_eve_cm_schur_value(self):
        V = eve_cm(AttackParams(2.0, 1.0, 1.0))
        out = heterodyne_condition(V, measured=1)
        np.testing.assert_allclose(out, np.diag([2.0 - 1.0 / 3.0] * 2), atol=1e-14)

    def test_validates_measured_subset(self):
        V = np.eye(4)
        with pytest.raises(ValueError):
            heterodyne_condition(V, measured=(0, 1))
        with pytest.raises(ValueError):
            heterodyne_condition(V, measured=())
        with pytest.raises(ValueError):
            heterodyne_condition(V, measured=5)


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        np.testing.assert_array_equal(beam_splitter(1.0, (0, 1), 2), np.eye(4))

    def test_full_reflection_swaps_with_sign(self):
        S = beam_splitter(0.0, (0, 1), 2)
        expected = np.zeros((4, 4))
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = -np.eye(2)
        np.testing.assert_array_equal(S, expected)

    def test_balanced_splitter_averages_variances(self):
        V = tensor(vacuum_cm(1), thermal_cm(3.0))
        out = apply_symplectic(beam_splitter(0.5, (0, 1), 2), V)
        np.testing.assert_allclose(np.diag(out), [2.0, 2.0, 2.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.731, 1.0])
    def test_is_symplectic(self, t):
        assert is_symplectic(beam_splitter(t, (0, 2), 3))

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            beam_splitter(1.5, (0, 1), 2)
        with pytest.raises(ValueError):
            beam_splitter(0.5, (0, 0), 2)
        with pytest.raises(ValueError):
            beam_splitter(0.5, (0, 3), 2)


class TestComposition:
    def test_apply_identity(self):
        rng = np.random.default_rng(3)
        V = random_bona_fide_cm(rng, 2)
        np.testing.assert_allclose(apply_symplectic(np.eye(4), V), V, atol=0)

    def test_partial_trace_of_tensor(self):
        V1 = thermal_cm(2.5)
        V2 = epr_cm(3.0)
        np.testing.assert_array_equal(partial_trace(tensor(V1, V2), keep=0), V1)
        np.testing.assert_array_equal(partial_trace(tensor(V1, V2), keep=(1, 2)), V2)

    def test_partial_trace_reorders(self):
        V = tensor(thermal_cm(2.0), thermal_cm(5.0))
        np.testing.assert_array_equal(partial_trace(V, keep=(1, 0)),
                                      tensor(thermal_cm(5.0), thermal_cm(2.0)))

    def test_vacuum_invariant_under_beam_splitter(self):
        out = apply_symplectic(beam_splitter(0.5, (0, 1), 2), vacuum_cm(2))
        np.testing.assert_allclose(out, np.eye(4), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_symplectic(np.eye(4), np.eye(6))
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), keep=(0, 0))


class TestPPT:
    def test_product_state_separable(self):
        assert ppt_separable(eve_cm(AttackParams(2.0, 0.0, 0.0)))

    def test_epr_attack_entangled(self):
        assert not ppt_separable(eve_cm(AttackParams(2.0, np.sqrt(3.0), -np.sqrt(3.0))))

    def test_symmetric_correlations_separable(self):
        assert ppt_separable(eve_cm(AttackParams(2.0, 1.0, 1.0)))

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(ValueError):
            ppt_separable(np.eye(6))


class TestInvariants:
    def test_symplectic_invariance_of_spectrum(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for _ in range(10):
                V = random_bona_fide_cm(rng, n)
                S = random_beam_splitter_net(rng, n)
                np.testing.assert_allclose(
                    symplectic_spectrum(apply_symplectic(S, V)),
                    symplectic_spectrum(V), atol=1e-8, rtol=1e-8)

    def test_purity_preserved_by_beam_splitter_networks(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            for _ in range(10):
                V = random_bona_fide_cm(rng, n, pure=True)
                nu = symplectic_spectrum(V)
                np.testing.assert_allclose(nu, np.ones(n), atol=1e-8)
                assert von_neumann_entropy(V) < 1e-6

    def test_determinant_consistency(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                V = random_bona_fide_cm(rng, n)
                nu = symplectic_spectrum(V)
                np.testing.assert_allclose(np.prod(nu ** 2), np.linalg.det(V), rtol=1e-6)

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(41)
        for n in (2, 3):
            for _ in range(15):
                V = random_bona_fide_cm(rng, n)
                measured = int(rng.integers(n))
                keep = [m for m in range(n) if m != measured]
                s_cond = von_neumann_entropy(heterodyne_condition(V, measured=measured))
                s_marg = von_neumann_entropy(partial_trace(V, keep=keep))
                assert s_cond <= s_marg + 1e-9

    def test_bona_fide_detection(self):
        assert is_bona_fide(epr_cm(3.0))
        assert not is_bona_fide(np.diag([0.9, 0.9]))
        assert not is_bona_fide(eve_cm(AttackParams(3.0, 5.0, 0.0)))
