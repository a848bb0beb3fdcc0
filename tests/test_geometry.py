"""Graded products, contractions, inverses, projections, duality, OPNS/IPNS."""

import numpy as np
import pytest

from hyperfir import (
    IsotropicBladeError,
    Multivector,
    Signature,
    blade_inverse,
    dual,
    ipns_member,
    left_contraction,
    opns_member,
    outer_product,
    project,
    project_blade,
    pseudoscalar,
    reject,
    right_contraction,
)

from _util import assert_close_mv, graded_product_oracle, random_mv


def random_vector(sig, rng, lo=-1.0, hi=1.0):
    return Multivector.from_vector(sig, rng.uniform(lo, hi, size=sig.n))


def random_blade(sig, rng, grade):
    """Wedge of `grade` random vectors, redrawn until invertible and well-conditioned."""
    while True:
        b = Multivector.scalar(sig, 1.0)
        for _ in range(grade):
            b = outer_product(b, random_vector(sig, rng))
        if b.modulus() > 0.1 and abs(b.scalar_product(b)) > 1e-3:
            return b


class TestOuterProduct:
    def test_orthogonal_factors(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_blade(sig, 0b01)
        e2 = Multivector.basis_blade(sig, 0b10)
        assert outer_product(e1, e2) == Multivector.basis_blade(sig, 0b11)

    def test_vector_self_wedge_vanishes(self):
        rng = np.random.default_rng(0)
        for sig in (Signature(2, 0), Signature(1, 2)):
            a = random_vector(sig, rng)
            assert outer_product(a, a).modulus() < 1e-15

    def test_bilinear_expansion(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_blade(sig, 0b01)
        e2 = Multivector.basis_blade(sig, 0b10)
        assert outer_product(e1 + e2, e2) == Multivector.basis_blade(sig, 0b11)

    def test_antisymmetry_on_vectors(self):
        rng = np.random.default_rng(1)
        sig = Signature(3, 0)
        a, b = random_vector(sig, rng), random_vector(sig, rng)
        assert_close_mv(outer_product(a, b), -outer_product(b, a), rtol=1e-15)

    def test_matches_grade_projection_oracle(self):
        rng = np.random.default_rng(2)
        for sig in (Signature(2, 1), Signature(0, 3)):
            for _ in range(10):
                m, n = random_mv(sig, rng), random_mv(sig, rng)
                expect = graded_product_oracle(m, n, lambda r, s: r + s)
                assert_close_mv(outer_product(m, n), expect, rtol=1e-12)

    def test_works_without_dense_tables(self):
        sig = Signature(5, 4)  # split product path: 5 low and 4 high basis vectors
        e1 = Multivector.basis_blade(sig, 0b01)
        e2 = Multivector.basis_blade(sig, 0b10)
        e12 = Multivector.basis_blade(sig, 0b11)
        assert outer_product(e1, e2) == e12
        assert left_contraction(e1, e12) == e2
        assert right_contraction(e12, e2) == e1  # e1 (e2 e2) with e2^2 = +1

    def test_associative(self):
        rng = np.random.default_rng(3)
        sig = Signature(3, 1)
        m, n, p = (random_mv(sig, rng) for _ in range(3))
        assert_close_mv(
            outer_product(outer_product(m, n), p),
            outer_product(m, outer_product(n, p)),
            rtol=1e-12,
        )


class TestContractions:
    def test_vector_into_bivector(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_blade(sig, 0b01)
        e12 = Multivector.basis_blade(sig, 0b11)
        assert left_contraction(e1, e12) == Multivector.basis_blade(sig, 0b10)

    def test_grade_underflow_vanishes(self):
        sig = Signature(2, 0)
        a = Multivector.basis_blade(sig, 0b01)
        beta = Multivector.scalar(sig, 4.0)
        assert left_contraction(a, beta) == Multivector.zero(sig)
        assert right_contraction(beta, a) == Multivector.zero(sig)

    def test_metric_sign(self):
        e1p = Multivector.basis_blade(Signature(1, 0), 1)
        e1m = Multivector.basis_blade(Signature(0, 1), 1)
        assert left_contraction(e1p, e1p).component(0) == 1.0
        assert left_contraction(e1m, e1m).component(0) == -1.0

    def test_vector_contraction_is_scalar_product(self):
        rng = np.random.default_rng(4)
        sig = Signature(2, 2)
        a, b = random_vector(sig, rng), random_vector(sig, rng)
        assert np.isclose(left_contraction(a, b).component(0), a.scalar_product(b), rtol=1e-12)

    def test_matches_grade_projection_oracle(self):
        rng = np.random.default_rng(5)
        for sig in (Signature(2, 1), Signature(1, 3)):
            for _ in range(10):
                m, n = random_mv(sig, rng), random_mv(sig, rng)
                assert_close_mv(
                    left_contraction(m, n), graded_product_oracle(m, n, lambda r, s: s - r), rtol=1e-12
                )
                assert_close_mv(
                    right_contraction(m, n), graded_product_oracle(m, n, lambda r, s: r - s), rtol=1e-12
                )

    def test_split_path_matches_grade_projection_oracle(self):
        rng = np.random.default_rng(7)
        for sig in (Signature(2, 7), Signature(5, 4)):
            m, n = random_mv(sig, rng), random_mv(sig, rng)
            scale = m.modulus() * n.modulus()
            for product, rule in (
                (outer_product, lambda r, s: r + s),
                (left_contraction, lambda r, s: s - r),
                (right_contraction, lambda r, s: r - s),
            ):
                assert_close_mv(product(m, n), graded_product_oracle(m, n, rule), rtol=1e-12, scale=scale)

    def test_chain_identity(self):
        # (A ^ B) _| C == A _| (B _| C)
        rng = np.random.default_rng(6)
        for sig in (Signature(3, 0), Signature(2, 2)):
            for _ in range(50):
                a, b, c = (random_mv(sig, rng) for _ in range(3))
                lhs = left_contraction(outer_product(a, b), c)
                rhs = left_contraction(a, left_contraction(b, c))
                assert_close_mv(lhs, rhs, rtol=1e-12, scale=a.modulus() * b.modulus() * c.modulus())

    def test_vector_product_decomposition_exact(self):
        # a b = a _| b + a ^ b for vectors, exactly on integer coefficients
        rng = np.random.default_rng(7)
        sig = Signature(2, 1)
        for _ in range(50):
            a = Multivector.from_vector(sig, rng.integers(-8, 9, size=sig.n).astype(float))
            b = Multivector.from_vector(sig, rng.integers(-8, 9, size=sig.n).astype(float))
            assert a * b == left_contraction(a, b) + outer_product(a, b)


class TestBladeInverse:
    def test_unit_square(self):
        sig = Signature(1, 0)
        e1 = Multivector.basis_blade(sig, 1)
        assert blade_inverse(e1) == e1

    def test_scaling(self):
        sig = Signature(1, 0)
        b = Multivector.basis_blade(sig, 1, 2.0)
        assert blade_inverse(b) == Multivector.basis_blade(sig, 1, 0.5)

    def test_isotropic_rejected(self):
        sig = Signature(1, 1)
        null_vec = Multivector.from_vector(sig, [1.0, 1.0])  # (e1+e2)^2 = 1 - 1 = 0
        with pytest.raises(IsotropicBladeError):
            blade_inverse(null_vec)

    def test_two_sided_inverse(self):
        rng = np.random.default_rng(8)
        sig = Signature(3, 1)
        one = Multivector.scalar(sig, 1.0)
        for grade in (1, 2, 3):
            b = random_blade(sig, rng, grade)
            inv = blade_inverse(b)
            assert_close_mv(b * inv, one, rtol=1e-9)
            assert_close_mv(inv * b, one, rtol=1e-9)


class TestProjectReject:
    def test_onto_self(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_blade(sig, 0b01)
        assert project(e1, e1) == e1
        assert reject(e1, e1) == Multivector.zero(sig)

    def test_axis_aligned_plane(self):
        sig = Signature(3, 0)
        a = Multivector.from_vector(sig, [1.0, 0.0, 1.0])  # e1 + e3
        e12 = Multivector.basis_blade(sig, 0b011)
        assert_close_mv(project(a, e12), Multivector.from_vector(sig, [1.0, 0.0, 0.0]), rtol=1e-15)
        assert_close_mv(reject(a, e12), Multivector.from_vector(sig, [0.0, 0.0, 1.0]), rtol=1e-15)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(9)
        for sig in (Signature(3, 0), Signature(2, 2)):
            for _ in range(30):
                grade = int(rng.integers(1, sig.n))
                blade = random_blade(sig, rng, grade)
                a = random_vector(sig, rng)
                assert_close_mv(project(a, blade) + reject(a, blade), a, rtol=1e-9)

    def test_rejects_non_vector(self):
        sig = Signature(2, 0)
        e12 = Multivector.basis_blade(sig, 0b11)
        with pytest.raises(ValueError):
            project(e12, e12)

    def test_general_blade_formula(self):
        rng = np.random.default_rng(10)
        sig = Signature(3, 0)
        blade = random_blade(sig, rng, 2)
        a = random_vector(sig, rng)
        assert_close_mv(project_blade(a, blade), project(a, blade), rtol=1e-15)


class TestDuality:
    def test_euclidean_3d_vector(self):
        sig = Signature(3, 0)
        e1 = Multivector.basis_blade(sig, 0b001)
        assert dual(e1) == Multivector.basis_blade(sig, 0b110, -1.0)

    def test_scalar_and_pseudoscalar(self):
        for sig in (Signature(3, 0), Signature(1, 2), Signature(2, 2)):
            i = pseudoscalar(sig)
            one = Multivector.scalar(sig, 1.0)
            assert dual(one) == blade_inverse(i)
            assert_close_mv(dual(i), one, rtol=1e-15)

    def test_grade_map(self):
        rng = np.random.default_rng(11)
        for sig in (Signature(3, 0), Signature(2, 2)):
            for r in range(sig.n + 1):
                m = random_mv(sig, rng).grade(r)
                d = dual(m)
                assert d.grades() in ((sig.n - r,), ())


class TestMembership:
    def test_basis_cases(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_blade(sig, 0b01)
        e2 = Multivector.basis_blade(sig, 0b10)
        assert opns_member(e1, e1)
        assert not opns_member(e2, e1)

    def test_constructed_members_and_nonmembers(self):
        rng = np.random.default_rng(12)
        for sig in (Signature(3, 0), Signature(4, 1)):
            for _ in range(20):
                grade = int(rng.integers(1, sig.n))
                spanning = [random_vector(sig, rng) for _ in range(grade)]
                blade = Multivector.scalar(sig, 1.0)
                for v in spanning:
                    blade = outer_product(blade, v)
                if blade.modulus() < 0.05:
                    continue
                member = Multivector.zero(sig)
                for v in spanning:
                    member = member + float(rng.uniform(-2, 2)) * v
                assert opns_member(member, blade)
                assert ipns_member(member, dual(blade))
                if abs(blade.scalar_product(blade)) > 1e-6:
                    off_span = reject(random_vector(sig, rng), blade)
                    if off_span.modulus() > 0.05:
                        outside = member + 3.0 * off_span
                        assert not opns_member(outside, blade)
                        assert not ipns_member(outside, dual(blade))

    def test_opns_ipns_equivalence_random(self):
        rng = np.random.default_rng(13)
        for sig in (Signature(3, 0), Signature(2, 3)):
            for _ in range(50):
                grade = int(rng.integers(1, sig.n))
                blade = random_blade(sig, rng, grade)
                x = random_vector(sig, rng)
                assert opns_member(x, blade) == ipns_member(x, dual(blade))
