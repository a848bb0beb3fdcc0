"""Core algebra: blade products, involutions, grade machinery, text forms."""

import numpy as np
import pytest

from hyperfir import (
    Multivector,
    Signature,
    SignatureMismatchError,
    blade_grade,
    blade_label,
    blade_product,
    format_multivector,
    parse_multivector,
    product_table,
)

from _util import all_signatures, assert_close_mv, product_oracle, random_int_mv, random_mv

QUAT = Signature(0, 2)


class TestSignature:
    def test_metric_split(self):
        sig = Signature(2, 1)
        assert [sig.metric(k) for k in (1, 2, 3)] == [1, 1, -1]
        assert sig.n == 3 and sig.dim == 8

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            Signature(7, 6)
        with pytest.raises(ValueError):
            Signature(0, 0)
        with pytest.raises(ValueError):
            Signature(-1, 2)


class TestBladeProduct:
    def test_quaternion_units_square_to_minus_one(self):
        for bits in (0b01, 0b10, 0b11):  # e1, e2, e12
            sign, c = blade_product(bits, bits, QUAT)
            assert (sign, c) == (-1, 0)

    def test_scalar_blade_is_identity(self):
        for sig in (QUAT, Signature(2, 1)):
            for a in range(sig.dim):
                assert blade_product(0, a, sig) == (1, a)
                assert blade_product(a, 0, sig) == (1, a)

    def test_adjacent_contraction(self):
        # e12 e23 = e1 (e2 e2) e3 = e13 in Cl(3,0)
        sign, c = blade_product(0b011, 0b110, Signature(3, 0))
        assert (sign, c) == (1, 0b101)

    def test_quaternion_unit_table(self):
        # ij = k, jk = i, ki = j and anticommutativity
        e1, e2, e12 = 0b01, 0b10, 0b11
        assert blade_product(e1, e2, QUAT) == (1, e12)
        assert blade_product(e2, e1, QUAT) == (-1, e12)
        assert blade_product(e2, e12, QUAT) == (1, e1)
        assert blade_product(e12, e1, QUAT) == (1, e2)


class TestProductTable:
    @pytest.mark.parametrize("sig", list(all_signatures(6)), ids=str)
    def test_pair_table_matches_on_the_fly(self, sig):
        table = product_table(sig)
        for a in range(sig.dim):
            for b in range(sig.dim):
                sign, c = blade_product(a, b, sig)
                assert table.xor[a, b] == c
                assert table.sign[a, b] == sign

    @pytest.mark.parametrize("sig", list(all_signatures(6)), ids=str)
    def test_square_signs_match_blade_product(self, sig):
        table = product_table(sig)
        assert [blade_product(a, a, sig) for a in range(sig.dim)] == [(s, 0) for s in table.square_signs]

    def test_structure_scalars_in_range(self):
        sig = Signature(2, 1)
        table = product_table(sig)
        for a in range(sig.dim):
            for b in range(sig.dim):
                for c in range(sig.dim):
                    gamma = table.structure_scalar(a, b, c)
                    assert gamma in (-1, 0, 1)
                    if a != b ^ c:
                        assert gamma == 0

    def test_structure_scalars_reproduce_product(self):
        sig = Signature(1, 2)
        table = product_table(sig)
        rng = np.random.default_rng(3)
        w, x = random_mv(sig, rng), random_mv(sig, rng)
        via_gamma = np.zeros(sig.dim)
        for a in range(sig.dim):
            for b in range(sig.dim):
                for c in range(sig.dim):
                    via_gamma[a] += w.coeffs[b] * x.coeffs[c] * table.structure_scalar(a, b, c)
        assert np.allclose(via_gamma, (w * x).coeffs, rtol=1e-12, atol=1e-12)


class TestGeometricProduct:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        for sig in (QUAT, Signature(3, 1)):
            m = random_mv(sig, rng)
            one = Multivector.scalar(sig, 1.0)
            assert (one * m) == m
            assert (m * one) == m

    def test_matches_blade_oracle_cl21(self):
        rng = np.random.default_rng(1)
        sig = Signature(2, 1)
        for _ in range(50):
            m, n = random_mv(sig, rng), random_mv(sig, rng)
            expect = product_oracle(m, n)
            assert np.allclose((m * n).coeffs, expect, rtol=1e-12, atol=1e-12)

    def test_quaternion_expansion(self):
        # all 16 bilinear terms of the quaternion product, exactly, on
        # small-integer coefficients where float64 arithmetic is exact
        rng = np.random.default_rng(2)
        for _ in range(200):
            w, x = random_int_mv(QUAT, rng), random_int_mv(QUAT, rng)
            wr, wi, wj, wk = w.coeffs
            xr, xi, xj, xk = x.coeffs
            expect = np.array([
                wr * xr - wi * xi - wj * xj - wk * xk,
                wr * xi + wi * xr + wj * xk - wk * xj,
                wr * xj + wj * xr + wk * xi - wi * xk,
                wr * xk + wk * xr + wi * xj - wj * xi,
            ])
            assert np.array_equal((w * x).coeffs, expect)

    def test_associative_and_distributive(self):
        rng = np.random.default_rng(3)
        for sig in (Signature(1, 1), Signature(2, 2)):
            for _ in range(25):
                m, n, p = (random_mv(sig, rng) for _ in range(3))
                scale = m.modulus() * n.modulus() * p.modulus()
                assert_close_mv((m * n) * p, m * (n * p), rtol=1e-12, scale=scale)
                assert_close_mv(m * (n + p), m * n + m * p, rtol=1e-12, scale=scale)

    def test_signature_mismatch_rejected(self):
        a = Multivector.scalar(Signature(1, 0), 1.0)
        b = Multivector.scalar(Signature(0, 1), 1.0)
        with pytest.raises(SignatureMismatchError):
            a * b

    def test_large_algebra_falls_back_without_tables(self):
        sig = Signature(5, 4)  # n = 9, above the dense-table cap
        table = product_table(sig)
        assert table.sign is None
        m = Multivector.basis_blade(sig, 0b101, 2.0)
        n = Multivector.basis_blade(sig, 0b110, 3.0)
        sign, c = blade_product(0b101, 0b110, sig)
        result = m * n
        assert result.component(c) == 6.0 * sign

    def test_large_algebra_sparse_products_match_blade_oracle(self):
        sig = Signature(5, 4)
        rng = np.random.default_rng(4)
        for _ in range(3):
            ca, cb = np.zeros(sig.dim), np.zeros(sig.dim)
            ia = rng.choice(sig.dim, size=12, replace=False)
            ib = rng.choice(sig.dim, size=12, replace=False)
            ca[ia] = rng.uniform(-2, 2, 12)
            cb[ib] = rng.uniform(-2, 2, 12)
            expect = np.zeros(sig.dim)
            for a in ia:
                for b in ib:
                    sign, c = blade_product(int(a), int(b), sig)
                    expect[c] += ca[a] * cb[b] * sign
            got = (Multivector(sig, ca) * Multivector(sig, cb)).coeffs
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)

    def test_dimension_cap_algebra_works(self):
        sig = Signature(6, 6)
        top = Multivector.basis_blade(sig, sig.dim - 1)
        assert (top * top.involution()).component(0) == 1.0

    @pytest.mark.parametrize("sig", [Signature(2, 7), Signature(5, 4), Signature(9, 0)], ids=str)
    def test_split_product_matches_blade_oracle(self, sig):
        # n = 9 splits into 5 low and 4 high basis vectors: p below, at and above 5
        rng = np.random.default_rng(sig.p)
        m, n = random_mv(sig, rng), random_mv(sig, rng)
        expect = Multivector(sig, product_oracle(m, n))
        assert_close_mv(m * n, expect, rtol=1e-12, scale=m.modulus() * n.modulus())

    @pytest.mark.parametrize("sig", [Signature(6, 4), Signature(3, 9)], ids=str)
    def test_split_products_match_blade_sums(self, sig):
        keep = {
            "geometric": lambda i, j: True,
            "outer": lambda i, j: i & j == 0,
            "left": lambda i, j: i & ~j == 0,
            "right": lambda i, j: j & ~i == 0,
        }
        rng = np.random.default_rng(sig.n)
        a, b = rng.uniform(-1, 1, sig.dim), rng.uniform(-1, 1, sig.dim)
        table = product_table(sig)
        got = {kind: table.multiply_masked(a, b, kind) for kind in ("outer", "left", "right")}
        got["geometric"] = table.multiply(a, b)
        for k in rng.choice(sig.dim, size=3, replace=False):
            k = int(k)
            terms = [(i, i ^ k, blade_product(i, i ^ k, sig)[0] * a[i] * b[i ^ k]) for i in range(sig.dim)]
            for kind, out in got.items():
                kept = [t for i, j, t in terms if keep[kind](i, j)]
                assert abs(out[k] - sum(kept)) <= 1e-12 * max(sum(map(abs, kept)), 1.0), (kind, k)

    def test_split_left_matrix_columns_match_blade_product(self):
        rng = np.random.default_rng(14)
        for sig in (Signature(5, 4), Signature(0, 10)):
            a = rng.uniform(-1, 1, sig.dim)
            matrix = product_table(sig).left_matrix(a)
            for j in rng.choice(sig.dim, size=3, replace=False):
                j = int(j)
                column = [blade_product(k ^ j, j, sig)[0] * a[k ^ j] for k in range(sig.dim)]
                assert np.array_equal(matrix[:, j], column)

    def test_left_matrix_consistent_on_both_paths(self):
        rng = np.random.default_rng(13)
        for sig in (Signature(2, 1), Signature(5, 4), Signature(6, 4)):
            table = product_table(sig)
            a = rng.uniform(-1, 1, sig.dim)
            b = rng.uniform(-1, 1, sig.dim)
            assert np.allclose(table.left_matrix(a) @ b, table.multiply(a, b), rtol=1e-12, atol=1e-14)


class TestInvolutions:
    def test_principal_involution_is_quaternion_conjugate(self):
        q = Multivector(QUAT, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(q.involution().coeffs, [1.0, -2.0, -3.0, -4.0])

    def test_scalars_invariant(self):
        for sig in (Signature(1, 0), Signature(2, 3)):
            alpha = Multivector.scalar(sig, -7.5)
            assert alpha.involution() == alpha
            assert alpha.reverse() == alpha

    def test_euclidean_bivector_flips(self):
        # e12 -> (e2)(e1) = -e12 in Cl(2,0)
        sig = Signature(2, 0)
        e12 = Multivector.basis_blade(sig, 0b11)
        assert e12.involution() == -e12

    def test_reverse_signs(self):
        sig = Signature(2, 1)
        for bits in range(sig.dim):
            blade = Multivector.basis_blade(sig, bits)
            r = blade_grade(bits)
            expect = -1.0 if (r * (r - 1) // 2) % 2 else 1.0
            assert blade.reverse().coeffs[bits] == expect

    def test_anti_automorphism_exact(self):
        # exact equality on integer coefficients regardless of summation order
        rng = np.random.default_rng(5)
        for sig in (QUAT, Signature(2, 1), Signature(1, 3)):
            for _ in range(50):
                m, n = random_int_mv(sig, rng), random_int_mv(sig, rng)
                assert (m * n).involution() == n.involution() * m.involution()
                assert (m * n).reverse() == n.reverse() * m.reverse()

    @pytest.mark.parametrize("sig", list(all_signatures(6)), ids=str)
    def test_basis_blade_involution_identity(self, sig):
        one = Multivector.scalar(sig, 1.0)
        for bits in range(sig.dim):
            blade = Multivector.basis_blade(sig, bits)
            assert blade * blade.involution() == one
            assert blade.involution() * blade == one


class TestGradeMachinery:
    def test_grade_select_examples(self):
        sig = Signature(2, 0)
        m = Multivector(sig, [3.0, 2.0, 0.0, 5.0])  # 3 + 2e1 + 5e12
        assert m.grade(0) == Multivector.scalar(sig, 3.0)
        assert m.grade(2) == Multivector.basis_blade(sig, 0b11, 5.0)
        with pytest.raises(ValueError):
            m.grade(3)

    def test_grade_reconstruction(self):
        rng = np.random.default_rng(6)
        sig = Signature(2, 2)
        m = random_mv(sig, rng)
        total = Multivector.zero(sig)
        for k in range(sig.n + 1):
            total = total + m.grade(k)
        assert total == m


class TestScalarProductAndModulus:
    def test_scalar_part_projection(self):
        rng = np.random.default_rng(7)
        sig = Signature(1, 2)
        m = random_mv(sig, rng)
        assert m.scalar_product(Multivector.scalar(sig, 1.0)) == m.coeffs[0]

    def test_matches_product_scalar_part(self):
        rng = np.random.default_rng(8)
        for sig in (QUAT, Signature(3, 0), Signature(2, 2)):
            for _ in range(20):
                m, n = random_mv(sig, rng), random_mv(sig, rng)
                assert np.isclose(m.scalar_product(n), (m * n).coeffs[0], rtol=1e-12, atol=1e-14)
                assert np.isclose(m.scalar_product(n), n.scalar_product(m), rtol=1e-12)

    def test_involuted_scalar_product_is_dot(self):
        rng = np.random.default_rng(9)
        sig = Signature(2, 1)
        m, n = random_mv(sig, rng), random_mv(sig, rng)
        assert np.isclose(m.scalar_product(n.involution()), float(np.dot(m.coeffs, n.coeffs)), rtol=1e-12)

    def test_component_extraction(self):
        sig = Signature(1, 0)
        m = Multivector(sig, [3.0, 2.0])
        assert m.component(1) == 2.0
        for sig in (QUAT, Signature(2, 1)):
            for a in range(sig.dim):
                ea = Multivector.basis_blade(sig, a)
                for b in range(sig.dim):
                    assert ea.scalar_product(Multivector.basis_blade(sig, b).involution()) == (1.0 if a == b else 0.0)

    def test_modulus(self):
        m = Multivector(QUAT, [1.0, 1.0, 1.0, 1.0])
        assert m.modulus() == 2.0
        assert Multivector.zero(QUAT).modulus() == 0.0
        rng = np.random.default_rng(10)
        x = random_mv(Signature(2, 3), rng)
        assert np.isclose(x.involution().modulus(), x.modulus(), rtol=1e-15)
        assert np.isclose(x.modulus() ** 2, x.scalar_product(x.involution()), rtol=1e-12)

    def test_signed_magnitude(self):
        hyper = Signature(1, 0)
        m = Multivector(hyper, [1.0, 1.0])
        assert m.signed_magnitude_sq() == 2.0
        assert Multivector.scalar(hyper, -3.0).signed_magnitude_sq() == 9.0
        assert Multivector.basis_blade(Signature(0, 1), 1).signed_magnitude_sq() == -1.0

    def test_signed_magnitude_is_self_scalar_product(self):
        rng = np.random.default_rng(12)
        for sig in (Signature(1, 1), Signature(2, 3)):
            m = random_mv(sig, rng)
            assert np.isclose(m.signed_magnitude_sq(), m.scalar_product(m), rtol=1e-12)


class TestTextForm:
    def test_lexical_order_cl3(self):
        table = product_table(Signature(3, 0))
        assert list(table.lex_to_bits) == [0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]

    def test_blade_labels(self):
        assert blade_label(0) == "1"
        assert blade_label(0b101) == "e13"
        assert blade_label(0b10000000001) == "e1_11"  # two-digit factor index

    def test_scalar_arithmetic_operators(self):
        m = Multivector(QUAT, [2.0, -4.0, 6.0, 0.0])
        assert (m / 2.0) == Multivector(QUAT, [1.0, -2.0, 3.0, 0.0])
        assert (0.5 * m) == (m * 0.5)
        assert m.copy() == m
        assert (m == "nope") is False

    def test_from_vector(self):
        sig = Signature(2, 1)
        v = Multivector.from_vector(sig, [1.0, 2.0, 3.0])
        assert v.grades() == (1,)
        assert v.component(0b001) == 1.0 and v.component(0b100) == 3.0
        with pytest.raises(ValueError):
            Multivector.from_vector(sig, [1.0, 2.0])

    def test_examples(self):
        m = Multivector(Signature(3, 0), [1.5, 0, 0, -2.0, 0, 0, 0, 0.25])
        text = format_multivector(m)
        # lexical slot 4 is e12 (mask 0b011), slot 7 is e123
        assert text == "3,0:[1.5, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.25]"
        assert parse_multivector(text) == m

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(11)
        for sig in (Signature(1, 0), QUAT, Signature(3, 2)):
            for _ in range(20):
                m = Multivector(sig, rng.standard_normal(sig.dim) * 10.0 ** rng.integers(-200, 200))
                again = parse_multivector(format_multivector(m))
                assert np.array_equal(again.coeffs, m.coeffs)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_multivector("0,2:[1.0, 2.0]")
        with pytest.raises(ValueError):
            parse_multivector("junk")
        with pytest.raises(ValueError):
            parse_multivector("0,2:[1.0, inf, 0.0, 0.0]")
