"""Young functions, conjugacy, Luxemburg norms and the pairing inequality.

Closed forms: the power family has explicit conjugates and norms, the
exponential pair evaluates to e - 2 and 2 log 2 - 1 at unit argument, and
the norm's defining property (unit mean at the norm) is checked directly.
"""

import numpy as np
import pytest

from htlab.errors import DegenerateInputError, ModelValidationError
from htlab.orlicz_diag import (KINDS, WeightedMeasure, YoungFunction,
                               holder_check, hypothesis_report,
                               luxemburg_norm)


def uniform_measure(n):
    return WeightedMeasure(np.full(n, 1.0 / n))


def test_young_function_values():
    power2 = YoungFunction("power", 2.0)
    assert power2(3.0) == pytest.approx(4.5)
    assert power2(-3.0) == pytest.approx(4.5)
    assert YoungFunction("power", 1.0)(2.5) == pytest.approx(2.5)
    assert YoungFunction("theta_exp")(1.0) == pytest.approx(np.e - 2.0)
    assert YoungFunction("theta_star_llogl")(1.0) == pytest.approx(
        2.0 * np.log(2.0) - 1.0)
    sup = YoungFunction("sup_norm")
    assert sup(0.5) == 0.0
    assert sup(1.0) == 0.0
    assert sup(1.5) == np.inf
    for kind in KINDS:
        fn = YoungFunction(kind, 2.0) if kind == "power" else YoungFunction(kind)
        assert fn(0.0) == 0.0


def test_young_function_validation():
    with pytest.raises(ModelValidationError):
        YoungFunction("cubic")
    with pytest.raises(ModelValidationError):
        YoungFunction("power", 0.5)
    with pytest.raises(ModelValidationError):
        YoungFunction("power")
    with pytest.raises(ModelValidationError):
        YoungFunction("theta_exp", 2.0)


def test_conjugate_pairs_and_involution():
    assert YoungFunction("power", 2.0).conjugate().p == pytest.approx(2.0)
    assert YoungFunction("power", 3.0).conjugate().p == pytest.approx(1.5)
    assert YoungFunction("power", 1.0).conjugate().kind == "sup_norm"
    assert YoungFunction("sup_norm").conjugate().p == 1.0
    assert YoungFunction("theta_exp").conjugate().kind == "theta_star_llogl"
    assert YoungFunction("theta_star_llogl").conjugate().kind == "theta_exp"
    for fn in (YoungFunction("power", 2.0), YoungFunction("power", 1.75),
               YoungFunction("theta_exp"), YoungFunction("sup_norm")):
        back = fn.conjugate().conjugate()
        assert back.kind == fn.kind
        if fn.p is not None:
            assert back.p == pytest.approx(fn.p)


def test_fenchel_young_for_each_pair():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 3.0, size=300)
    b = rng.uniform(0.0, 3.0, size=300)
    for fn in (YoungFunction("power", 2.0), YoungFunction("power", 3.0),
               YoungFunction("theta_exp")):
        conj = fn.conjugate()
        assert np.all(fn(a) + conj(b) - a * b >= -1e-12)
    # equality loci: b = a^{p-1} for powers, b = e^a - 1 for the exponential
    a = np.linspace(0.1, 2.0, 8)
    p3 = YoungFunction("power", 3.0)
    np.testing.assert_allclose(p3(a) + p3.conjugate()(a ** 2), a * a ** 2,
                               atol=1e-12)
    texp = YoungFunction("theta_exp")
    np.testing.assert_allclose(texp(a) + texp.conjugate()(np.expm1(a)),
                               a * np.expm1(a), atol=1e-12)


def test_luxemburg_norm_special_cases():
    m = uniform_measure(4)
    u = np.array([1.0, -2.0, 0.5, 3.0])
    assert luxemburg_norm(np.zeros(4), m, YoungFunction("power", 2.0)) == 0.0
    assert luxemburg_norm(u, m, YoungFunction("power", 1.0)) == pytest.approx(
        np.mean(np.abs(u)), rel=1e-9)
    assert luxemburg_norm(u, m, YoungFunction("sup_norm")) == 3.0
    # power 2: gamma(a) = a^2/2, so the norm is the L2(m) norm over sqrt(2)
    expected = np.sqrt(np.mean(u ** 2) / 2.0)
    assert luxemburg_norm(u, m, YoungFunction("power", 2.0)) == pytest.approx(
        expected, rel=1e-9)


def test_luxemburg_norm_homogeneity_and_unit_mean():
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 1.5, size=6)
    m = WeightedMeasure(w / w.sum())
    u = rng.normal(size=6)
    for fn in (YoungFunction("power", 3.0), YoungFunction("theta_exp"),
               YoungFunction("theta_star_llogl")):
        norm = luxemburg_norm(u, m, fn)
        assert luxemburg_norm(4.0 * u, m, fn) == pytest.approx(4.0 * norm,
                                                               rel=1e-9)
        # defining property: the mean crosses 1 exactly at the norm
        assert float(np.sum(m.weights * fn(np.abs(u) / norm))) <= 1.0 + 1e-9
        assert float(np.sum(m.weights * fn(np.abs(u) / (0.999 * norm)))) > 1.0


def test_luxemburg_norm_input_checks():
    m = uniform_measure(3)
    with pytest.raises(ModelValidationError):
        luxemburg_norm(np.ones(4), m, YoungFunction("power", 2.0))
    with pytest.raises(ModelValidationError):
        luxemburg_norm(np.array([1.0, np.inf, 0.0]), m,
                       YoungFunction("power", 2.0))


def test_holder_check_random_pairs():
    rng = np.random.default_rng(13)
    w = rng.uniform(0.2, 1.0, size=8)
    m = WeightedMeasure(w / w.sum())
    for fn in (YoungFunction("power", 2.0), YoungFunction("power", 3.0),
               YoungFunction("theta_exp")):
        for _ in range(25):
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            chk = holder_check(u, v, m, fn)
            assert chk.satisfied
            assert chk.lhs <= chk.rhs * (1.0 + 1e-12)
    zero = holder_check(np.zeros(8), rng.normal(size=8), m,
                        YoungFunction("power", 2.0))
    assert zero.lhs == 0.0
    assert zero.satisfied


def test_holder_check_factor_two_is_sharp_for_squares():
    """With the square pair and u = v the bound is met with equality."""
    m = uniform_measure(5)
    u = np.array([1.0, -0.5, 2.0, 0.3, -1.2])
    chk = holder_check(u, u, m, YoungFunction("power", 2.0))
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-8)
    assert chk.norm_u == pytest.approx(chk.norm_v, rel=1e-9)


def test_weighted_measure_validation():
    with pytest.raises(DegenerateInputError):
        WeightedMeasure(np.array([]))
    with pytest.raises(ModelValidationError):
        WeightedMeasure(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ModelValidationError):
        WeightedMeasure(np.array([0.5, 0.2]))
    with pytest.raises(DegenerateInputError):
        WeightedMeasure(np.array([[0.5, 0.5]]))


def test_hypothesis_report_values():
    m = WeightedMeasure(np.array([0.5, 0.5]))
    V = np.array([[0.0, -3.0], [1.0, 0.5]])
    rep = hypothesis_report(np.array([np.e, 1.0]), np.ones(2), V, m,
                            YoungFunction("theta_star_llogl"), p=2.0)
    assert rep.v_min == -3.0
    assert rep.lo == 3.0
    assert rep.bounded_below
    assert rep.gamma1_integral == pytest.approx(2.0 * np.log(2.0) - 1.0,
                                                rel=1e-12)
    assert rep.f0_sqlog_integral == pytest.approx(0.5 * np.e ** 2, rel=1e-12)
    assert rep.gamma1_sqlog_integral == 0.0
    assert rep.verdict == "satisfied (finite space)"
    assert "lo=3.000000e+00" in rep.report()


def test_hypothesis_report_conjugate_integral():
    """With the llogl primal, the conjugate column is theta of the potential."""
    m = uniform_measure(3)
    V = np.full((4, 3), 0.7)
    rep = hypothesis_report(np.ones(3), np.ones(3), V, m,
                            YoungFunction("theta_star_llogl"))
    assert rep.sup_v_conjugate_integral == pytest.approx(
        np.expm1(0.7) - 0.7, rel=1e-12)


def test_hypothesis_report_square_log_integrals():
    m = uniform_measure(2)
    llogl = YoungFunction("theta_star_llogl")
    V = np.zeros(2)
    flat = hypothesis_report(np.ones(2), np.ones(2), V, m, llogl)
    assert flat.f0_sqlog_integral == 0.0
    assert flat.gamma1_sqlog_integral == 0.0
    rep = hypothesis_report(np.array([np.e, 1.0]), np.array([np.e, 1.0]), V,
                            m, llogl, p=2.0)
    assert rep.f0_sqlog_integral == pytest.approx(0.5 * np.e ** 2, rel=1e-12)
    assert rep.verdict == "satisfied (finite space)"
    assert "f0_sqlog_integral" in rep.report()
    with pytest.raises(ModelValidationError) as err:
        hypothesis_report(np.ones(2), np.ones(2), V, m, llogl, p=1.0)
    assert err.value.reason == "bad_exponent"
