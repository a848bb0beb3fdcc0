"""Split application of real scalar nonlinearities to multivector signals.

A split nonlinearity applies one real function phi independently to every
blade coefficient of a multivector; it is bounded and componentwise smooth
but not analytic in the algebra, which is exactly what the filter training
needs.  Optional per-component amplitudes scale each blade channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Multivector


@dataclass(frozen=True)
class Activation:
    """Real scalar nonlinearity with its derivative, applied componentwise.

    ``func`` and ``deriv`` are numpy-vectorized callables.  Unbounded
    activations (identity) exist for linear sanity checks only.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    bounded: bool = True


def _logistic(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def _logistic_deriv(t: np.ndarray) -> np.ndarray:
    s = _logistic(t)
    return s * (1.0 - s)


def _tanh_deriv(t: np.ndarray) -> np.ndarray:
    y = np.tanh(np.asarray(t, dtype=float))
    return 1.0 - y * y


def _identity(t: np.ndarray) -> np.ndarray:
    return np.asarray(t, dtype=float)


def _ones(t: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(t, dtype=float))


TANH = Activation("tanh", lambda t: np.tanh(np.asarray(t, dtype=float)), _tanh_deriv)
LOGISTIC = Activation("logistic", _logistic, _logistic_deriv)
IDENTITY = Activation("identity", _identity, _ones, bounded=False)

ACTIVATIONS = {a.name: a for a in (TANH, LOGISTIC, IDENTITY)}


def get_activation(name: str) -> Activation:
    """Look up an activation by name ('tanh' | 'logistic' | 'identity')."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}") from None


def split_apply(phi: Activation, x: Multivector) -> Multivector:
    """phi applied to every blade coefficient of x."""
    return Multivector(x.sig, phi.func(x.coeffs))


def split_apply_deriv(phi: Activation, x: Multivector) -> np.ndarray:
    """phi' evaluated per blade coefficient.

    The entries are the same function phi' at different arguments, one per
    component; they are not equal in general.
    """
    return phi.deriv(x.coeffs)


def split_apply_amplitude(lambdas: np.ndarray, phi: Activation, x: Multivector) -> Multivector:
    """Amplitude-scaled split application: component A maps to lambda_A * phi(x_A)."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != (x.sig.dim,):
        raise ValueError(f"need {x.sig.dim} amplitudes for {x.sig}, got shape {lambdas.shape}")
    return Multivector._own(x.sig, lambdas * phi.func(x.coeffs))
