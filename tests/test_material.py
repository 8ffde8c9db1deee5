import dataclasses
import math

import numpy as np
import pytest

from viscophase.dynamics import make_state
from viscophase.errors import (ConfigError, InvalidDeltaError,
                               PotentialDomainError)
from viscophase.fields import Grid
from viscophase.material import (degenerate_model, double_well,
                                 flory_huggins_split, regular_model,
                                 regularize_mobility, regularize_potential)


class TestDoubleWell:
    def test_values(self):
        P = double_well()
        assert P.f(0.0) == pytest.approx(0.25)
        assert P.f(1.0) == 0.0
        assert P.f(-1.0) == 0.0
        assert P.df(0.5) == pytest.approx(-0.375)
        assert P.d2f(0.0) == pytest.approx(-1.0)

    def test_constants(self):
        P = double_well()
        # F >= 0 >= -c3 and min F'' = -1 = -c4
        s = np.linspace(-3, 3, 1001)
        assert P.c3 == 0.0
        assert P.c4 == 1.0
        assert np.all(P.f(s) >= -P.c3)
        assert np.asarray(P.d2f(s)).min() == pytest.approx(-1.0)

    def test_derivative_matches_cubic(self):
        # (s*s - 1)*s against s**3 - s: each rounds a few times, so they
        # differ by at most 2 eps (|s|^3 + |s|)
        s = np.linspace(-2.0, 2.0, 40001)
        bound = 2.0 * np.finfo(float).eps * (np.abs(s) ** 3 + np.abs(s))
        assert np.all(np.abs(double_well().df(s) - (s**3 - s)) <= bound)

    def test_derivative_consistency(self):
        P = double_well()
        s = np.linspace(-1.5, 1.5, 41)
        h = 1e-6
        fd = (np.asarray(P.f(s + h)) - np.asarray(P.f(s - h))) / (2 * h)
        assert np.abs(fd - P.df(s)).max() < 1e-8


class TestFloryHuggins:
    def test_log_part_values(self):
        P = flory_huggins_split(theta_c=2.5)
        assert P.f1(0.5) == pytest.approx(-math.log(2.0), abs=1e-14)
        assert P.d2f1(0.5) == pytest.approx(4.0, abs=1e-12)
        assert P.d2f1(0.1) == pytest.approx(1.0 / 0.1 + 1.0 / 0.9, abs=1e-12)

    def test_split_consistency(self):
        P = flory_huggins_split()
        s = np.linspace(1e-3, 1 - 1e-3, 301)
        assert np.abs(P.f1(s) + P.f2(s) - P.f(s)).max() < 1e-12
        assert P.c4 == pytest.approx(5.0)
        assert P.c3 == pytest.approx(math.log(2.0))

    def test_lower_bound(self):
        P = flory_huggins_split(theta_c=2.5)
        s = np.linspace(1e-6, 1 - 1e-6, 10001)
        assert np.all(np.asarray(P.f(s)) >= -P.c3)

    def test_double_minimum(self):
        # for theta_c = 2.5 the minima sit symmetrically near 0.145/0.855
        P = flory_huggins_split(theta_c=2.5)
        s = np.linspace(1e-4, 1 - 1e-4, 200001)
        fv = np.asarray(P.f(s))
        left = s[s < 0.5][np.argmin(fv[s < 0.5])]
        right = s[s > 0.5][np.argmin(fv[s > 0.5])]
        assert left == pytest.approx(0.1446, abs=2e-3)
        assert right == pytest.approx(1.0 - left, abs=1e-4)

    def test_domain_enforced(self):
        M = regular_model(potential=flory_huggins_split())
        grid = Grid(shape=(4, 4), lengths=(1.0, 1.0))
        for bad in (1.2, 0.0):
            phi = np.full(grid.shape, 0.5)
            phi[1, 2] = bad
            zero = np.full(grid.shape, 0.0)
            with pytest.raises(PotentialDomainError, match="open interval"):
                make_state(0.0, phi, zero, np.zeros((grid.d,) + grid.shape),
                           zero, M, grid)


class TestRegularization:
    def test_delta_range(self):
        P = flory_huggins_split()
        for bad in (0.7, 0.0, -0.1, 0.5):
            with pytest.raises(InvalidDeltaError):
                regularize_potential(P, bad)

    def test_matches_inside(self):
        delta = 1e-2
        P = flory_huggins_split()
        Pd = regularize_potential(P, delta)
        s = np.linspace(delta, 1 - delta, 101)
        assert np.abs(np.asarray(Pd.f(s)) - np.asarray(P.f(s))).max() < 1e-12
        assert Pd.domain is None
        assert Pd.delta == delta

    def test_quadratic_tail(self):
        delta = 1e-2
        P = flory_huggins_split()
        Pd = regularize_potential(P, delta)
        # outside values equal the second-order Taylor polynomial at the knot
        s = -0.3
        expect = (P.f1(delta) + P.df1(delta) * (s - delta)
                  + 0.5 * P.d2f1(delta) * (s - delta) ** 2)
        assert Pd.f1(s) == pytest.approx(expect, rel=1e-12)
        # C^1 continuity across the knot
        eps = 1e-9
        assert Pd.df1(delta - eps) == pytest.approx(Pd.df1(delta + eps), abs=1e-4)

    def test_mobility_clamp(self):
        delta = 1e-3
        m = regularize_mobility(lambda s: np.asarray(s) * (1 - np.asarray(s)), delta)
        assert m(0.0) == pytest.approx(delta * (1 - delta))
        assert m(1.0) == pytest.approx(delta * (1 - delta))
        assert m(0.5) == pytest.approx(0.25)
        assert np.all(m(np.linspace(-1, 2, 101)) > 0)


class TestEntropy:
    def test_logistic_mobility_closed_form(self):
        # m = s(1-s): G(s) = s ln s + (1-s) ln(1-s) + ln 2
        G = degenerate_model(delta=1e-3, mobility="s(1-s)").entropy
        expect = 0.25 * math.log(0.25) + 0.75 * math.log(0.75) + math.log(2.0)
        assert G.g(0.25) == pytest.approx(expect, abs=1e-6)
        assert G.g(0.5) == 0.0

    @pytest.mark.parametrize("delta", [1e-2, 1e-4])
    @pytest.mark.parametrize("mobility", ["s(1-s)", "s2(1-s)2"])
    def test_second_derivative_is_inverse_mobility(self, mobility, delta):
        # G(1/2) = G'(1/2) = 0 and G'' m_delta = 1 on [-1, 2], beyond the
        # knots too; the central-difference step shrinks near a knot,
        # where G''' jumps
        M = degenerate_model(delta=delta, mobility=mobility)
        g = M.entropy.g
        assert abs(g(0.5)) <= 1e-15
        assert abs(g(0.5 + 1e-6) - g(0.5 - 1e-6)) / 2e-6 <= 1e-8
        s = np.linspace(-1.0, 2.0, 3001)
        knot_gap = np.minimum(np.abs(s - delta), np.abs(s - 1.0 + delta))
        s, knot_gap = s[knot_gap > 1e-5], knot_gap[knot_gap > 1e-5]
        h = 1e-3 * np.minimum(knot_gap, 1.0)
        d2g = (g(s + h) - 2.0 * g(s) + g(s - h)) / h**2
        assert np.abs(d2g * M.n(s) ** 2 - 1.0).max() < 1e-4

    @pytest.mark.parametrize("delta", [1e-2, 1e-4])
    def test_logistic_entropy_is_shifted_potential(self, delta):
        # for m = s(1-s) the entropy extends F1 + ln 2 by the rule that
        # extends F1, so G_delta = F_{1,delta} + ln 2 everywhere
        M = degenerate_model(delta=delta, mobility="s(1-s)")
        s = np.linspace(-1.0, 2.0, 3001)
        f1 = M.potential.f1(s)
        diff = M.entropy.g(s) - f1 - math.log(2.0)
        ulp = np.finfo(float).eps * (1.0 + np.abs(f1))
        assert np.all(np.abs(diff) <= 2 * ulp)


class TestModels:
    def test_regular_defaults(self):
        M = regular_model()
        assert M.c0 == pytest.approx(2.5e-3)
        assert M.eps1 == pytest.approx(1e-2)
        assert M.a == pytest.approx(1.5)           # c4/2 + 1
        assert M.n(0.3) ** 2 == pytest.approx(1.0)

    def test_regular_bad_stabilization_detected(self):
        # c4 = 1 for the double well
        with pytest.raises(ConfigError, match=r"stabilization\.a .* c4/2"):
            regular_model(a=0.2)

    def test_stabilization_enforced(self):
        M = regular_model()
        with pytest.raises(ConfigError, match=r"stabilization\.a .* c4/2"):
            dataclasses.replace(M, a=0.1)

    def test_degenerate_defaults(self):
        M = degenerate_model(delta=1e-3)
        assert M.regime == "degenerate"
        assert M.a == pytest.approx(2.5 / 2 * 2 + 1)   # c4/2 + 1 = theta_c + 1
        # the clamped mobility stays positive at the pure phases
        assert M.n(0.0) == pytest.approx(np.sqrt(1e-3 * (1 - 1e-3)))
        # A/n constant = alpha
        s = np.linspace(0.05, 0.95, 31)
        assert np.abs(np.asarray(M.A(s)) / np.asarray(M.n(s)) - 1.0).max() < 1e-12

    def test_degenerate_quadratic_mobility(self):
        M = degenerate_model(delta=1e-3, mobility="s2(1-s)2")
        assert M.n(0.5) ** 2 == pytest.approx(0.25**2)

    def test_degenerate_entropy_bundled(self):
        M = degenerate_model(delta=1e-2)
        assert M.entropy is not None
        assert M.entropy.g(0.5) == 0.0
        assert np.isfinite(M.entropy.g(-0.2))
