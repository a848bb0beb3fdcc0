"""Graded products and subspace operations on multivectors.

The outer product and the two contractions are the grade-restricted parts of
the geometric product of homogeneous elements, extended bilinearly:

    <A_r B_s>_{r+s}   outer product (blade span)
    <A_r B_s>_{s-r}   left contraction (grade lowering from the left)
    <A_r B_s>_{r-s}   right contraction

On the bitmask basis these restrictions select exactly the blade pairs with
disjoint, left-contained, and right-contained factor sets, which is how they
are computed here.  Projections, duality and the outer/inner product null
space membership tests are built on top of them.

Every product here with a blade whose support is known goes through one
rule (`_paired`): those of projection, rejection, `project_blade`, the
membership tests, and duality, a I^-1 with the single blade I^-1 = I / (I I).
Above the dense tables (n > 6) each product pairs the two supports
(`ProductTable._support_product`), which for a vector and a 2-blade at
n = 12 are 792 pairs, where a dense product reads all 2^n coefficients of
its right operand.  Operands holding an inf or NaN, and supports that would
form more than `_SUPPORT_PAIRS_PER_BLADE` pairs per blade of the algebra,
take the dense expression from its start: that keeps the outputs of
non-finite operands, and bounds the time and memory spent on dense ones.  Up
to n = 6 the dense products always run.  Every entry of a dual is a single
term, so on finite operands it has the dense product's bits.
"""

from __future__ import annotations

import numpy as np

from .algebra import TABLE_MAX_DIMENSION, Multivector, Signature, _sq_sum, product_table

#: Relative tolerance for the floating-point "is zero" decision in the
#: subspace membership tests.  Well above arithmetic noise (~1e-12 relative),
#: well below geometric scales.
MEMBERSHIP_RTOL = 1e-9


#: Cost model of the subspace operations' products above the dense tables,
#: in pairs per blade of the algebra: a product of two supports runs when it
#: forms at most this many pairs per 2^n blades, and the dense products run
#: otherwise.  A support product signs and weights every pair it forms,
#: kept or not, so its cost follows the pairs this rule counts.  Measured on
#: a 2-vCPU x86 VM with numpy 2.4 and one BLAS thread, for project, reject
#: and opns_member of a vector and blades of grade 1 to 5 at n = 9 to 12:
#: where each of their products formed at most 6 pairs per blade, the
#: support products took 0.09 to 0.87 of the dense time, and with a dense
#: operand, 9 to 12 pairs per blade of which half are kept, 1.25 to 2.5
#: times it.  At n = 6 they took 0.9 to 1.4 times the products of 2^n x 2^n
#: pair tables, their numpy calls alone 20 to 50 us, so up to n = 6, where
#: such tables are kept, the dense products always run.  At n = 7 and 8,
#: where the dense products take the split kernel or the blocks, they took
#: 0.36 to 0.85 of the dense time, and the rule above holds as at n = 9 to 12.
_SUPPORT_PAIRS_PER_BLADE = 8


class IsotropicBladeError(ValueError):
    """Raised for blades with zero signed square, which have no inverse."""


def _masked(a: Multivector, b: Multivector, kind: str | None) -> Multivector:
    a._check_sig(b)
    table = product_table(a.sig)
    return Multivector._own(a.sig, table.multiply(a.coeffs, b.coeffs, kind))


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative grade-raising product; antisymmetric on vectors."""
    return _masked(a, b, "outer")


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    """Grade-lowering product <A_r B_s>_{s-r}; zero when r exceeds s."""
    return _masked(a, b, "left")


def right_contraction(a: Multivector, b: Multivector) -> Multivector:
    """Mirror image of the left contraction, <A_r B_s>_{r-s}."""
    return _masked(a, b, "right")


def blade_inverse(a: Multivector) -> Multivector:
    """Inverse of a blade with respect to the geometric product, A / (A*A).

    Raises IsotropicBladeError when the signed square A*A vanishes; such
    blades admit no projection or duality.
    """
    return a / _invertible(a.scalar_product(a))


def _invertible(square: float) -> float:
    if square == 0.0:
        raise IsotropicBladeError("blade has zero signed square; no inverse exists")
    return square


def project(a: Multivector, onto: Multivector) -> Multivector:
    """Projection of vector a onto the invertible blade: (a _| B) B^-1.

    For a blade B the result is exactly grade 1, so only the blade pairs
    that land on grade 1 are summed; the other grades (pure roundoff) are
    zero.
    """
    return _paired(a, onto, "left", inverse=True, grade=1, vector=True)


def reject(a: Multivector, onto: Multivector) -> Multivector:
    """Rejection of vector a from the invertible blade: (a ^ B) B^-1.

    Complements project: project(a, B) + reject(a, B) == a for grade-1 a.
    Grade-sliced like `project`.
    """
    return _paired(a, onto, "outer", inverse=True, grade=1, vector=True)


def project_blade(a: Multivector, onto: Multivector) -> Multivector:
    """General-blade projection formula (A _| B) B^-1, without the
    projection/rejection decomposition guarantee of the vector case."""
    return _paired(a, onto, "left", inverse=True)


def _paired(
    a: Multivector,
    b: Multivector,
    kind: str | None,
    inverse: bool = False,
    grade: int | None = None,
    vector: bool = False,
) -> Multivector:
    # a kind b and, given ``inverse``, that product times b^-1, restricted to
    # ``grade`` (None keeps all); ``vector`` requires a grade-1 a.  Above the
    # dense tables each product pairs the two supports while their values
    # are finite and they form at most _SUPPORT_PAIRS_PER_BLADE pairs per
    # blade; otherwise the dense expression runs from its start.  The errors
    # are the grade-1 check's, then the dense expression's, in its order.
    table = product_table(a.sig)
    if vector and (table.grades[a.coeffs != 0.0] != 1).any():
        raise ValueError("expected a grade-1 input")
    if a.sig.n > TABLE_MAX_DIMENSION:
        a._check_sig(b)
        ib, bv = _support(b.coeffs)
        steps = [(kind, bv, None if inverse else grade)]
        if inverse:
            # A square that overflows leaves a zero inverse, and then zeros on
            # both paths.
            square = _sq_sum(bv * table.square_signs[ib], bv) if ib.size else 0.0
            steps.append((None, bv / _invertible(square), grade))
        out = a.coeffs
        for step_kind, values, step_grade in steps:
            ia, av = _support(out)
            if not (
                ia.size * ib.size <= _SUPPORT_PAIRS_PER_BLADE * table.dim
                and np.isfinite(av).all()
                and np.isfinite(values).all()
            ):
                break
            out = table._support_product(ia, av, ib, values, step_kind, step_grade)
        else:
            return Multivector._own(a.sig, out)
    out = _masked(a, b, kind)
    if inverse:
        out = out * blade_inverse(b)
    return out if grade is None else out.grade(grade)


def _support(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Masks and values of the nonzero (or NaN) coefficients.  The comparison
    # first: nonzero() of a bool array is several times faster than of floats.
    idx = (coeffs != 0.0).nonzero()[0]
    return idx, coeffs[idx]


def pseudoscalar(sig: Signature) -> Multivector:
    """Highest-grade basis blade e_1...e_n."""
    return Multivector.basis_blade(sig, sig.dim - 1)


def dual(a: Multivector) -> Multivector:
    """Multiplication by the inverse unit pseudoscalar; grade r maps to n-r."""
    return _paired(a, blade_inverse(pseudoscalar(a.sig)), None)


def opns_member(x: Multivector, blade: Multivector) -> bool:
    """Whether vector x lies in the subspace spanned by the blade (x ^ A = 0)."""
    return _vanishes(x, blade, "outer")


def ipns_member(x: Multivector, dual_blade: Multivector) -> bool:
    """Whether vector x lies in the subspace with dual representation D (x _| D = 0)."""
    return _vanishes(x, dual_blade, "left")


def _vanishes(x: Multivector, blade: Multivector, kind: str) -> bool:
    # Whether |x kind blade| <= MEMBERSHIP_RTOL |x| |blade| for a vector x.
    out = _paired(x, blade, kind, vector=True)
    return out.modulus() <= MEMBERSHIP_RTOL * x.modulus() * blade.modulus()
