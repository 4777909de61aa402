import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twowayqkd import (ATTACK_CLASSES, AttackParams, UnphysicalAttackError, attack_from_class,
                       classify, eve_cm, is_bona_fide, is_physical, normalize_class,
                       physical_region_grid, ppt_separable, require_physical,
                       symplectic_spectrum)
from twowayqkd import gaussian
from twowayqkd.attacks import _physical_mask
from twowayqkd.gaussian import BONA_FIDE_ATOL


def matrix_oracle(omega, g, g_prime):
    """Physicality by the toolbox route: Cholesky/SVD spectrum of Eve's 4x4 matrix."""
    return is_bona_fide(eve_cm(AttackParams(omega, g, g_prime)))


class TestEveCm:
    def test_vacuum_ancillas(self):
        np.testing.assert_array_equal(eve_cm(AttackParams(1.0, 0.0, 0.0)), np.eye(4))

    def test_explicit_structure(self):
        V = eve_cm(AttackParams(2.0, 1.0, -1.0))
        expected = np.array([
            [2.0, 0.0, 1.0, 0.0],
            [0.0, 2.0, 0.0, -1.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, -1.0, 0.0, 2.0],
        ])
        np.testing.assert_array_equal(V, expected)

    def test_omega_below_vacuum_rejected(self):
        with pytest.raises(UnphysicalAttackError):
            AttackParams(0.5, 0.0, 0.0)

    def test_valid_matrix_can_still_be_unphysical(self):
        a = AttackParams(3.0, 5.0, 0.0)
        assert eve_cm(a).shape == (4, 4)
        assert not is_physical(a)
        with pytest.raises(UnphysicalAttackError):
            require_physical(a)


class TestAttackClasses:
    @pytest.mark.parametrize("label, expected", [
        ("collective", (0.0, 0.0)),
        ("epr+", (np.sqrt(3.0), -np.sqrt(3.0))),
        ("epr-", (-np.sqrt(3.0), np.sqrt(3.0))),
        ("sep-sym+", (1.0, 1.0)),
        ("sep-sym-", (-1.0, -1.0)),
        ("sep-anti+", (1.0, -1.0)),
        ("sep-anti-", (-1.0, 1.0)),
    ])
    def test_mapping_at_omega_two(self, label, expected):
        a = attack_from_class(label, 2.0)
        assert (a.g, a.g_prime) == pytest.approx(expected, abs=1e-15)
        assert is_physical(a)

    def test_underscore_aliases(self):
        assert normalize_class("epr_pos") == "epr+"
        assert normalize_class("sep-sym_neg") == "sep-sym-"
        assert attack_from_class("epr_pos", 2.0) == attack_from_class("epr+", 2.0)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            attack_from_class("unitary", 2.0)

    def test_all_classes_physical_over_omega_grid(self):
        for label in ATTACK_CLASSES:
            for w in (1.0, 1.5, 2.0, 5.0, 20.0):
                assert is_physical(attack_from_class(label, w))

    @pytest.mark.parametrize("label", ["epr+", "epr-", "sep-sym+", "sep-sym-"])
    def test_extremal_classes_saturate_physicality(self, label):
        for w in (1.5, 2.0, 3.0):
            nu = symplectic_spectrum(eve_cm(attack_from_class(label, w)))
            assert abs(nu[-1] - 1.0) <= 1e-9

    @pytest.mark.parametrize("label", ["sep-sym+", "sep-sym-", "sep-anti+", "sep-anti-"])
    def test_separable_classes_pass_ppt(self, label):
        for w in (1.5, 2.0, 3.0):
            assert ppt_separable(eve_cm(attack_from_class(label, w)))


class TestClassify:
    def test_collective(self):
        assert classify(AttackParams(2.0, 0.0, 0.0)) == "collective"

    def test_entangled(self):
        assert classify(AttackParams(2.0, np.sqrt(3.0), -np.sqrt(3.0))) == "entangled"

    def test_separable_correlated(self):
        assert classify(AttackParams(2.0, -1.0, -1.0)) == "separable_correlated"

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalAttackError):
            classify(AttackParams(2.0, 1.9, 1.9))

    def test_matches_the_matrix_route(self, monkeypatch):
        """classify decides the PPT test in closed form, by the physicality of
        (omega, g, -g'), since the partial transpose flips the sign of g'.  The
        matrix route, ppt_separable(eve_cm(...)), stays the oracle: it builds the
        partial transpose and takes its symplectic spectrum by Cholesky and SVD,
        and shares no algebra with the closed form.  The grid holds nodes on the
        PPT boundary, such as (1.5, 0.5, -0.5) and (2, 1, -1)."""
        def oracle(a):
            if abs(a.g) <= 1e-12 and abs(a.g_prime) <= 1e-12:
                return "collective"
            return "separable_correlated" if ppt_separable(eve_cm(a)) else "entangled"

        attacks = [AttackParams(w, g, gp) for w in (1.0, 1.2, 1.5, 2.0, 3.0, 4.0)
                   for g, gp in physical_region_grid(w, 0.1).tolist()]
        expected = [oracle(a) for a in attacks]
        assert {"collective", "entangled", "separable_correlated"} == set(expected)
        monkeypatch.setattr(gaussian, "ppt_separable", lambda V: pytest.fail("matrix route"))
        assert [classify(a) for a in attacks] == expected


class TestPhysicalRegionGrid:
    def test_omega_one_collapses_to_origin(self):
        grid = physical_region_grid(1.0, 0.37)
        assert grid.tolist() == [[0.0, 0.0]]

    def test_contents_at_omega_two(self):
        grid = physical_region_grid(2.0, 0.5)
        assert grid.shape[1] == 2
        pts = {(g, gp) for g, gp in grid.tolist()}
        assert (-1.0, -1.0) in pts
        assert (0.0, 0.0) in pts
        assert (2.0, 2.0) not in pts

    def test_every_point_classifies(self):
        for g, gp in physical_region_grid(2.0, 0.5).tolist():
            assert classify(AttackParams(2.0, g, gp)) in (
                "collective", "separable_correlated", "entangled")

    def test_grid_symmetries(self):
        pts = {(g, gp) for g, gp in physical_region_grid(1.8, 0.3).tolist()}
        assert pts == {(gp, g) for g, gp in pts}
        assert pts == {(-g, -gp) for g, gp in pts}

    def test_row_major_order(self):
        rows = physical_region_grid(1.5, 0.75).tolist()
        assert rows == sorted(rows)

    def test_validates_arguments(self):
        with pytest.raises(UnphysicalAttackError):
            physical_region_grid(0.9, 0.1)
        with pytest.raises(ValueError):
            physical_region_grid(2.0, 0.0)


class TestClosedFormPhysicality:
    """The closed-form mask against the covariance-matrix route."""

    @pytest.mark.parametrize("omega", [1.0, 1.5, 2.0, 3.0])
    def test_matches_matrix_oracle_at_every_node(self, omega):
        k = int(np.floor(omega / 0.1 + 1e-9))
        vals = np.arange(-k, k + 1) * 0.1
        G, GP = np.meshgrid(vals, vals, indexing="ij")
        mask = _physical_mask(omega, G, GP)
        expected = [matrix_oracle(omega, g, gp) for g, gp in zip(G.ravel(), GP.ravel())]
        assert mask.ravel().tolist() == expected
        assert 0 < mask.sum() < mask.size

    @settings(max_examples=300, deadline=None)
    @given(omega=st.floats(1.0, 4.0), u=st.floats(-3.0, 3.0), v=st.floats(-3.0, 3.0))
    def test_matches_matrix_oracle_off_the_boundary(self, omega, u, v):
        g, gp = u * omega, v * omega
        floor = (1.0 - BONA_FIDE_ATOL) ** 2
        assume(abs((omega - g) * (omega - gp) - floor) > 1e-6)
        assume(abs((omega + g) * (omega + gp) - floor) > 1e-6)
        assert bool(_physical_mask(omega, g, gp)) == matrix_oracle(omega, g, gp)

    def test_require_physical_names_the_failed_condition(self):
        with pytest.raises(UnphysicalAttackError, match="positive definiteness"):
            require_physical(AttackParams(2.0, 2.5, 0.0))
        with pytest.raises(UnphysicalAttackError, match="bona fide"):
            require_physical(AttackParams(2.0, 1.5, 1.5))

    @pytest.mark.parametrize("field", ["omega", "g", "g_prime"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameters_rejected(self, field, value):
        params = {"omega": 2.0, "g": 0.0, "g_prime": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AttackParams(**params)


class TestAttackParamsRecord:
    """AttackParams is a NamedTuple whose checks no construction route skips."""

    @pytest.mark.parametrize("field, value, error, message", [
        ("omega", np.inf, ValueError, "omega must be finite"),
        ("omega", 0.5, UnphysicalAttackError, "omega must be >= 1"),
        ("omega", 2e9, ValueError, "omega must be <= 1e\\+09"),
        ("g", np.nan, ValueError, "g must be finite"),
        ("g_prime", -np.inf, ValueError, "g_prime must be finite"),
    ])
    def test_every_route_checks(self, field, value, error, message):
        valid = AttackParams(2.0, 0.5, -0.5)
        bad = {**valid._asdict(), field: value}
        for build in (lambda: AttackParams(**bad), lambda: valid._replace(**{field: value}),
                      lambda: AttackParams._make(bad.values())):
            with pytest.raises(error, match=message):
                build()

    def test_tuple_contract(self):
        a = AttackParams(2.0, 0.5, -0.5)
        assert a._fields == ("omega", "g", "g_prime")
        assert repr(a) == "AttackParams(omega=2.0, g=0.5, g_prime=-0.5)"
        assert tuple(a) == (2.0, 0.5, -0.5) and a == AttackParams(omega=2.0, g=0.5, g_prime=-0.5)
        assert hash(a) == hash(AttackParams(2.0, 0.5, -0.5))
        moved = a._replace(g=0.25)
        assert type(moved) is AttackParams and moved == (2.0, 0.25, -0.5)
        with pytest.raises(AttributeError):
            a.omega = 3.0


class TestSymmetries:
    def test_physicality_invariant_under_swap_and_negation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.uniform(1.0, 4.0)
            g = rng.uniform(-w, w)
            gp = rng.uniform(-w, w)
            flags = {is_physical(AttackParams(w, g, gp)),
                     is_physical(AttackParams(w, gp, g)),
                     is_physical(AttackParams(w, -g, -gp))}
            assert len(flags) == 1

    def test_spectrum_invariant_under_swap_and_negation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.uniform(1.0, 3.0)
            g = rng.uniform(-(w - 1.0), w - 1.0)
            gp = rng.uniform(-(w - 1.0), w - 1.0)
            base = symplectic_spectrum(eve_cm(AttackParams(w, g, gp)))
            for other in ((w, gp, g), (w, -g, -gp)):
                np.testing.assert_allclose(
                    symplectic_spectrum(eve_cm(AttackParams(*other))), base, atol=1e-10)
