import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aahwalk.model import ModelParams, bond_coefficient, bond_profile


def test_bond_coefficient_weak_first_bond():
    p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, L=5)
    assert bond_coefficient(p, 0) == pytest.approx(0.1)


def test_bond_coefficient_uniform_chain():
    for T, phi in [(2, 0.0), (3, 1.0), (5, -2.0)]:
        p = ModelParams(J=1.0, lambda_J=0.0, T_period=T, phi_J=phi, L=6)
        assert all(c == pytest.approx(1.0) for c in bond_profile(p))


def test_bond_coefficient_quarter_phase_kills_modulation():
    p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=math.pi / 2, L=6)
    assert all(c == pytest.approx(1.0) for c in bond_profile(p))


def test_bond_index_out_of_range():
    p = ModelParams(L=4)
    with pytest.raises(IndexError):
        bond_coefficient(p, 3)
    with pytest.raises(IndexError):
        bond_coefficient(p, -1)


def test_bond_profile_examples():
    p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=0.0, L=5)
    assert bond_profile(p) == pytest.approx([0.1, 1.9, 0.1, 1.9])
    p = ModelParams(J=1.0, lambda_J=0.9, T_period=2, phi_J=math.pi, L=5)
    assert bond_profile(p) == pytest.approx([1.9, 0.1, 1.9, 0.1])
    p = ModelParams(J=1.0, lambda_J=0.5, T_period=2, phi_J=0.0, L=10)
    assert bond_profile(p) == pytest.approx(
        [0.5, 1.5, 0.5, 1.5, 0.5, 1.5, 0.5, 1.5, 0.5])


def test_alternating_formula_period_two():
    p = ModelParams(J=1.3, lambda_J=0.4, T_period=2, phi_J=0.0, L=9)
    for b, c in enumerate(bond_profile(p)):
        expected = 1.3 * (1 - 0.4) if b % 2 == 0 else 1.3 * (1 + 0.4)
        assert c == pytest.approx(expected)


@given(
    lam=st.floats(-2.0, 2.0),
    phi=st.floats(-math.pi, math.pi),
    L=st.integers(2, 10),
    T=st.integers(1, 6),
)
def test_phase_pi_shift_equals_lambda_negation(lam, phi, L, T):
    a = ModelParams(lambda_J=lam, T_period=T, phi_J=phi + math.pi, L=L)
    b = ModelParams(lambda_J=-lam, T_period=T, phi_J=phi, L=L)
    assert np.allclose(bond_profile(a), bond_profile(b), atol=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(L=1)
    with pytest.raises(ValueError):
        ModelParams(L=15)
    with pytest.raises(ValueError):
        ModelParams(T_period=0)
    with pytest.raises(ValueError):
        ModelParams(flavor="bogus")
    for name in ("J", "lambda_J", "phi_J", "V"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                ModelParams(**{name: bad})
