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
"""

from __future__ import annotations

from .algebra import Multivector, Signature, product_table

#: Relative tolerance for the floating-point "is zero" decision in the
#: subspace membership tests.  Well above arithmetic noise (~1e-12 relative),
#: well below geometric scales.
MEMBERSHIP_RTOL = 1e-9


class IsotropicBladeError(ValueError):
    """Raised for blades with zero signed square, which have no inverse."""


def _masked(a: Multivector, b: Multivector, kind: str) -> Multivector:
    if a.sig != b.sig:
        # reuse the standard mismatch error
        a._check_sig(b)
    table = product_table(a.sig)
    return Multivector._own(a.sig, table.multiply_masked(a.coeffs, b.coeffs, kind))


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative grade-raising product; antisymmetric on vectors."""
    return _masked(a, b, "outer")


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    """Grade-lowering product <A_r B_s>_{s-r}; zero when r exceeds s."""
    return _masked(a, b, "left")


def right_contraction(a: Multivector, b: Multivector) -> Multivector:
    """Mirror image of the left contraction, <A_r B_s>_{r-s}."""
    return _masked(a, b, "right")


def homogeneous_grade(m: Multivector) -> int | None:
    """The single grade of m, or None if m mixes grades (zero counts as grade 0)."""
    present = m.grades()
    if len(present) == 0:
        return 0
    if len(present) == 1:
        return present[0]
    return None


def blade_inverse(a: Multivector) -> Multivector:
    """Inverse of a blade with respect to the geometric product, A / (A*A).

    Raises IsotropicBladeError when the signed square A*A vanishes; such
    blades admit no projection or duality.
    """
    square = a.scalar_product(a)
    if square == 0.0:
        raise IsotropicBladeError("blade has zero signed square; no inverse exists")
    return a / square


def project(a: Multivector, onto: Multivector) -> Multivector:
    """Projection of vector a onto the invertible blade: (a _| B) B^-1.

    For a blade B the result is exactly grade 1, so the other grades (pure
    roundoff) are sliced away.
    """
    _require_vector(a)
    return (left_contraction(a, onto) * blade_inverse(onto)).grade(1)


def reject(a: Multivector, onto: Multivector) -> Multivector:
    """Rejection of vector a from the invertible blade: (a ^ B) B^-1.

    Complements project: project(a, B) + reject(a, B) == a for grade-1 a.
    Grade-sliced like `project`.
    """
    _require_vector(a)
    return (outer_product(a, onto) * blade_inverse(onto)).grade(1)


def project_blade(a: Multivector, onto: Multivector) -> Multivector:
    """General-blade projection formula (A _| B) B^-1, without the
    projection/rejection decomposition guarantee of the vector case."""
    return left_contraction(a, onto) * blade_inverse(onto)


def _require_vector(a: Multivector) -> None:
    if a.grades() not in ((), (1,)):
        raise ValueError("expected a grade-1 input")


def pseudoscalar(sig: Signature) -> Multivector:
    """Highest-grade basis blade e_1...e_n."""
    return Multivector.basis_blade(sig, sig.dim - 1)


def dual(a: Multivector) -> Multivector:
    """Multiplication by the inverse unit pseudoscalar; grade r maps to n-r."""
    return a * blade_inverse(pseudoscalar(a.sig))


def opns_member(x: Multivector, blade: Multivector, rtol: float = MEMBERSHIP_RTOL) -> bool:
    """Whether vector x lies in the subspace spanned by the blade (x ^ A = 0)."""
    _require_vector(x)
    return outer_product(x, blade).modulus() <= rtol * x.modulus() * blade.modulus()


def ipns_member(x: Multivector, dual_blade: Multivector, rtol: float = MEMBERSHIP_RTOL) -> bool:
    """Whether vector x lies in the subspace with dual representation D (x _| D = 0)."""
    _require_vector(x)
    return left_contraction(x, dual_blade).modulus() <= rtol * x.modulus() * dual_blade.modulus()
