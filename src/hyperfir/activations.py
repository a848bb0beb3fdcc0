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

from .algebra import Multivector, Signature, _real_array


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
    # 1 / (1 + e^-t) for t >= 0 and e^t / (1 + e^t) otherwise, so that exp
    # never overflows.
    t = np.asarray(t, dtype=float)
    pos = t >= 0
    e = np.exp(np.where(pos, -t, t))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


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


def _value_and_slope(phi: Activation, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # phi(t) and phi'(t) of a float array t, with the bits of phi.func(t) and
    # phi.deriv(t); tanh's slope 1 - tanh(t)^2 reuses the value.
    if phi is TANH:
        y = np.tanh(t)
        return y, 1.0 - y * y
    return phi.func(t), phi.deriv(t)


def split_apply_amplitude(lambdas: np.ndarray, phi: Activation, x: Multivector) -> Multivector:
    """Amplitude-scaled split application: component A maps to lambda_A * phi(x_A)."""
    return Multivector._own(x.sig, _amplitudes(lambdas, x.sig) * phi.func(x.coeffs))


def _amplitudes(lambdas, sig: Signature) -> np.ndarray:
    # lambdas as a float array of one real amplitude per blade of sig (see
    # algebra._real_array); ValueError otherwise.
    lambdas = _real_array(lambdas, "amplitudes")
    if lambdas.shape != (sig.dim,):
        raise ValueError(f"need {sig.dim} amplitudes for {sig}, got shape {lambdas.shape}")
    return lambdas
