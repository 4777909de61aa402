"""Eve's physicality conditions derived in sympy, and the closed-form mask checked against them."""

from fractions import Fraction

import numpy as np
import sympy as sp

from twowayqkd.attacks import _physical_mask

import _symbolic
from _symbolic import g, g_prime, w


def test_quadratures_decouple():
    V = _symbolic.eve_cm()
    Vx, Vp, C = _symbolic.quadrature_blocks(V)
    assert C == sp.zeros(2, 2)
    # reordered to (q1, q2, p1, p2), V is the direct sum of its q and p blocks
    order = [*_symbolic.Q, *_symbolic.P]
    assert V.extract(order, order) == sp.diag(Vx, Vp)
    assert (Vx, Vp) == (sp.Matrix([[w, g], [g, w]]), sp.Matrix([[w, g_prime], [g_prime, w]]))


def test_symplectic_spectrum():
    nu1_sq, nu2_sq = (w - g) * (w - g_prime), (w + g) * (w + g_prime)
    squares = _symbolic.symplectic_squares()
    assert sorted(map(sp.expand, squares), key=str) == sorted(map(sp.expand, (nu1_sq, nu2_sq)),
                                                            key=str)
    assert list(squares.values()) == [1, 1]
    # the definition: Omega V has the eigenvalues +-i nu1 and +-i nu2
    lam = sp.Symbol("lam")
    omega_form = sp.diag(*[sp.Matrix([[0, 1], [-1, 0]])] * 2)
    charpoly = (omega_form * _symbolic.eve_cm()).charpoly(lam).as_expr()
    assert sp.expand(charpoly - (lam ** 2 + nu1_sq) * (lam ** 2 + nu2_sq)) == 0


def test_q_block_determinant():
    Vx, _, _ = _symbolic.quadrature_blocks(_symbolic.eve_cm())
    assert sp.expand(Vx.det() - (w - g) * (w + g)) == 0


def test_mask_matches_exact_conditions_off_the_boundary():
    # dyadic rationals, so that every point is a double exactly; points within 1e-6 of
    # a condition's boundary are left out, where the mask's 1e-9 tolerance decides
    points, expected, definite_not_bona_fide = [], [], 0
    for omega in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(13, 4)):
        steps = [omega * Fraction(j, 8) for j in range(-12, 13)]
        for gv in steps:
            for gpv in steps:
                positive, at_least_one = _symbolic.condition_values(omega, gv, gpv)
                if min(map(abs, positive)) < 1e-6 or min(abs(x - 1) for x in at_least_one) < 1e-6:
                    continue
                points.append((omega, gv, gpv))
                expected.append(_symbolic.is_physical_exact(omega, gv, gpv))
                definite_not_bona_fide += all(x > 0 for x in positive) and not expected[-1]
    assert all(Fraction(float(x)) == x for point in points for x in point)
    mask = _physical_mask(*np.array(points, dtype=float).T)
    assert mask.tolist() == expected
    # both conditions decide some points
    assert 0 < sum(expected) and 0 < definite_not_bona_fide < len(expected) - sum(expected)
    assert len(points) > 2500
