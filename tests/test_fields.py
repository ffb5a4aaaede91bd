"""Analytic derivatives of scalar fields against central differences, and
closed-form properties of the quartic cutoff profile."""

import numpy as np
import pytest

from curvlab.fields import (
    BallFactorField,
    ConstantField,
    ExpQuadraticField,
    ProductField,
    QuarticCutoff,
)
from references import fd_gradient, fd_hessian


def random_field(rng, dim):
    a = rng.normal(size=dim) * 0.3
    M = rng.normal(size=(dim, dim)) * 0.2
    return ExpQuadraticField(a=a, B=0.5 * (M + M.T), c=float(rng.normal() * 0.1))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_field_gradients_match_fd(dim):
    rng = np.random.default_rng(20260823 + dim)
    fields = [
        ConstantField(1.7),
        BallFactorField(kappa=1.0),
        BallFactorField(kappa=2.5),
        random_field(rng, dim),
        ProductField(random_field(rng, dim), BallFactorField(kappa=1.0)),
    ]
    for field in fields:
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=dim)
            g_fd = fd_gradient(lambda y: float(field.value(y)), x)
            h_fd = fd_hessian(lambda y: float(field.value(y)), x)
            assert np.allclose(field.gradient(x), g_fd, rtol=1e-6, atol=1e-8)
            assert np.allclose(field.hessian(x), h_fd, rtol=1e-4, atol=1e-6)


def test_fields_vectorize_over_batches():
    rng = np.random.default_rng(7)
    field = ProductField(random_field(rng, 3), BallFactorField(kappa=1.0))
    xs = rng.uniform(-0.5, 0.5, size=(11, 3))
    vals = field.value(xs)
    grads = field.gradient(xs)
    hesses = field.hessian(xs)
    assert vals.shape == (11,)
    assert grads.shape == (11, 3)
    assert hesses.shape == (11, 3, 3)
    for i, x in enumerate(xs):
        assert np.allclose(vals[i], field.value(x))
        assert np.allclose(grads[i], field.gradient(x))
        assert np.allclose(hesses[i], field.hessian(x))


@pytest.mark.parametrize("stacked", [False, True], ids=["one-field", "stacked"])
@pytest.mark.parametrize("dim", [2, 3])
def test_exp_quadratic_point_rounds_the_same_alone_and_in_a_batch(dim, stacked):
    """Bitwise: a point alone, the same point inside a batch, and, for a
    stack of fields, each field alone at its own points."""
    rng = np.random.default_rng(31 + dim)
    S, k = 20, 50
    M = rng.normal(size=(S, dim, dim)) * 0.2
    a = rng.normal(size=(S, dim)) * 0.3
    B = 0.5 * (M + np.swapaxes(M, -1, -2))
    c = rng.normal(size=S) * 0.1
    xs = rng.uniform(-1.0, 1.0, size=(S, k, dim))
    if stacked:
        field = ExpQuadraticField(a=a, B=B, c=c)
        singles = [ExpQuadraticField(a=a[s], B=B[s], c=c[s]) for s in range(S)]
    else:
        field = ExpQuadraticField(a=a[0], B=B[0], c=float(c[0]))
        singles = [field] * S
    vals, grads, hesses = field.value(xs), field.gradient(xs), field.hessian(xs)
    assert vals.shape == (S, k) and hesses.shape == (S, k, dim, dim)
    for s, one in enumerate(singles):
        assert np.array_equal(vals[s], one.value(xs[s]))
        assert np.array_equal(grads[s], one.gradient(xs[s]))
        assert np.array_equal(hesses[s], one.hessian(xs[s]))
        for j, x in enumerate(xs[s]):
            assert vals[s, j] == one.value(x)
            assert np.array_equal(grads[s, j], one.gradient(x))
            assert np.array_equal(hesses[s, j], one.hessian(x))


@pytest.mark.parametrize("profile", [QuarticCutoff(3.0)], ids=["quartic"])
def test_profile_r_derivatives_match_fd(profile):
    rs = np.linspace(0.05, 2.6, 40)
    h = 1e-6
    u = lambda r: profile.q_value(r * r)
    d1_fd = (u(rs + h) - u(rs - h)) / (2 * h)
    d2_fd = (u(rs + h) - 2 * u(rs) + u(rs - h)) / h**2
    assert np.allclose(profile.d1(rs), d1_fd, rtol=1e-7, atol=1e-8)
    assert np.allclose(profile.d2(rs), d2_fd, rtol=1e-3, atol=1e-3)


def test_quartic_cutoff_endpoint_values():
    R = 2.0
    prof = QuarticCutoff(R)
    assert prof.q_value(0.0) == 1.0
    assert prof.q_value(R * R) == 0.0
    assert prof.q_value((1.5 * R) ** 2) == 0.0
    assert prof.d1(R) == 0.0
    assert prof.d1(1.5 * R) == 0.0
    # u'(r)/r extends to r = 0 with value u''(0) = -4/R^2
    assert np.isclose(prof.d1_over_r(0.0), -4.0 / R**2)
    assert np.isclose(prof.d2(0.0), -4.0 / R**2)


def test_quartic_cutoff_monotone_and_gradient_bound():
    R = 1.7
    prof = QuarticCutoff(R)
    rs = np.linspace(0.0, R, 10_001)
    d1 = prof.d1(rs)
    assert np.all(d1 <= 1e-15)
    # sup |u'| = 8 sqrt(3) / (9 R), attained exactly at r = R / sqrt(3)
    bound = 8.0 * np.sqrt(3.0) / (9.0 * R)
    assert np.all(np.abs(d1) <= bound + 1e-12)
    r_star = R / np.sqrt(3.0)
    assert np.isclose(abs(prof.d1(r_star)), bound, rtol=1e-14)
    # u'(r)/r is nondecreasing: derivative 8 r / R^4 >= 0
    ratios = prof.d1_over_r(rs)
    assert np.all(np.diff(ratios) >= -1e-15)


def test_quartic_cutoff_d1_sq_over_value_closed_form():
    R = 2.5
    prof = QuarticCutoff(R)
    rs = np.linspace(0.0, R - 1e-6, 512)
    direct = prof.d1(rs) ** 2 / prof.q_value(rs * rs)
    assert np.allclose(prof.d1_sq_over_value(rs), direct, rtol=1e-9)
    # stays finite (and correct) at the cutoff radius itself
    assert np.isclose(prof.d1_sq_over_value(R), 16.0 / R**2)
