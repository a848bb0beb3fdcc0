"""Core algebra: blade products, involutions, grade machinery, text forms."""

import hashlib
import tracemalloc

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
from hyperfir.algebra import (
    TABLE_MAX_DIMENSION,
    ProductTable,
    _lexical_order,
    blade_factors,
    ideal_frame,
)

from _util import (
    IDEAL_SIGNATURES,
    PAIRS_KEPT,
    all_signatures,
    assert_close_mv,
    blade_product_oracle,
    dense_ideal_bases,
    dense_table_oracle,
    every_ideal_block,
    lexical_order_oracle,
    product_oracle,
    random_int_mv,
    random_mv,
    right_matrix,
    split_left_matrix_oracle,
    split_loop_oracle,
    split_multiply_oracle,
    square_sum_reference,
    structure_scalar,
)

QUAT = Signature(0, 2)


class TestSignature:
    def test_metric_split(self):
        sig = Signature(2, 1)
        assert [sig.metric(k) for k in (1, 2, 3)] == [1, 1, -1]
        assert sig.n == 3 and sig.dim == 8

    @pytest.mark.parametrize("k", [0, 4, -1, np.int64(4)], ids=repr)
    def test_metric_rejects_index_out_of_range(self, k):
        with pytest.raises(ValueError, match=r"^basis vector index must be in \[1, 3\], got -?\d$"):
            Signature(2, 1).metric(k)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            Signature(7, 6)
        with pytest.raises(ValueError):
            Signature(0, 0)
        with pytest.raises(ValueError):
            Signature(-1, 2)

    @pytest.mark.parametrize("p,q", [(2.0, 1), (True, 1), (1, np.float64(1.0)), (1, "1"), (np.True_, 1)])
    def test_rejects_non_integer_counts(self, p, q):
        with pytest.raises(ValueError, match="integers"):
            Signature(p, q)

    def test_numpy_integer_counts_stored_as_int(self):
        sig = Signature(np.int64(2), np.int32(1))
        assert type(sig.p) is int and type(sig.q) is int
        assert sig == Signature(2, 1) and str(sig) == "Cl(2,1)"

    def test_equal_instances_compare_hash_and_share_tables(self):
        a, b = Signature(2, 1), Signature(2, 1)
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert product_table(a) is product_table(b)
        assert a != Signature(1, 2) and a != Signature(2, 0)

    def test_comparison_with_other_types_is_false(self):
        sig = Signature(1, 0)
        assert not sig == (1, 0)
        assert sig != (1, 0) and sig != "Cl(1,0)" and sig != None  # noqa: E711


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

    @pytest.mark.parametrize("sig", list(all_signatures(5)), ids=str)
    def test_matches_factor_word_rewriting(self, sig):
        # Every mask pair, against the bubble sort and cancellation of the
        # factor word of e_a e_b.
        for a in range(sig.dim):
            for b in range(sig.dim):
                assert blade_product(a, b, sig) == blade_product_oracle(a, b, sig), (a, b)


#: Blade masks and grades that are not integers: bools, floats, a string and None.
NON_INTEGERS = [True, False, 1.5, 2.0, np.float64(1.0), "1", None]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
class TestNonIntegerMasksAndGrades:
    """Blade masks and grades pass through operator.index: anything but an int or numpy integer raises ValueError.

    Before, a float mask raised IndexError, a bool one TypeError or passed as
    0 or 1 (a basis blade of all ones), and a float grade selected that grade.
    """

    M = Multivector(QUAT, [1.0, 2.0, 3.0, 4.0])

    def test_component(self, bad):
        with pytest.raises(ValueError, match="blade masks must be integers"):
            self.M.component(bad)

    def test_basis_blade(self, bad):
        with pytest.raises(ValueError, match="blade masks must be integers"):
            Multivector.basis_blade(QUAT, bad)

    def test_blade_product(self, bad):
        for a, b in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError, match="blade masks must be integers"):
                blade_product(a, b, QUAT)

    def test_grade(self, bad):
        with pytest.raises(ValueError, match="grades must be integers"):
            self.M.grade(bad)

    def test_metric(self, bad):
        # metric(1.5) used to return 1, metric(2.5) -1 and metric(True) 1.
        with pytest.raises(ValueError, match="basis vector indices must be integers"):
            Signature(2, 1).metric(bad)

    def test_blade_grade(self, bad):
        with pytest.raises(ValueError, match="blade masks must be integers"):
            blade_grade(bad)

    def test_blade_factors(self, bad):
        with pytest.raises(ValueError, match="blade masks must be integers"):
            blade_factors(bad)

    def test_blade_label(self, bad):
        with pytest.raises(ValueError, match="blade masks must be integers"):
            blade_label(bad)


@pytest.mark.parametrize("helper", [blade_grade, blade_factors, blade_label], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bits", [-1, -3, np.int64(-1)], ids=repr)
def test_blade_helpers_reject_negative_masks(helper, bits):
    # blade_grade(-1) and blade_label(-1) used to read -1 as e1.
    with pytest.raises(ValueError, match=r"^blade masks must be non-negative, got -\d$"):
        helper(bits)


def test_numpy_integer_masks_and_grades_accepted():
    m = Multivector(QUAT, [1.0, 2.0, 3.0, 4.0])
    for k in (np.int64(3), np.uint8(3), np.intp(3)):
        assert m.component(k) == 4.0
        assert Multivector.basis_blade(QUAT, k) == Multivector.basis_blade(QUAT, 3)
        assert blade_product(k, np.int32(1), QUAT) == blade_product(3, 1, QUAT)
        assert type(blade_product(k, np.int32(1), QUAT)[1]) is int
    assert m.grade(np.int64(1)) == m.grade(1)
    for call in (lambda: m.component(np.int64(4)), lambda: blade_product(np.int64(-1), 0, QUAT)):
        with pytest.raises(ValueError, match="out of range"):
            call()


def test_numpy_integer_indices_and_blade_helper_masks_accepted():
    sig = Signature(2, 1)
    for k in (np.int64(3), np.uint8(3), np.intp(3)):
        assert sig.metric(k) == -1
        assert blade_grade(k) == 2 and blade_factors(k) == (1, 2) and blade_label(k) == "e12"
    assert blade_factors(np.int64(0)) == () and blade_label(np.uint8(0)) == "1"


class TestProductTable:
    @pytest.mark.parametrize("sig", list(all_signatures(6)), ids=str)
    def test_pair_table_matches_on_the_fly(self, sig):
        table = product_table(sig)
        for a in range(sig.dim):
            for b in range(sig.dim):
                sign, c = blade_product(a, b, sig)
                assert table.xor[a, b] == c
                assert table.sign_left[a ^ b, b] == sign

    @pytest.mark.parametrize("sig", list(all_signatures(6)), ids=str)
    def test_square_signs_match_blade_product(self, sig):
        table = product_table(sig)
        assert [blade_product(a, a, sig) for a in range(sig.dim)] == [(s, 0) for s in table.square_signs]

    @pytest.mark.parametrize("sig", [*all_signatures(6), Signature(4, 4)], ids=str)
    def test_right_matrices_match_blade_products(self, sig):
        # Each R(x_t) of a stack, and the R(x~_t) that are their transposes,
        # entry for entry (inf and NaN included), and built only on first use.
        table = ProductTable(sig)
        assert "_right_index" not in vars(table)
        rng = np.random.default_rng(sig.dim)
        x = rng.standard_normal((3, sig.dim))
        x[2, [0, -1]] = [np.nan, np.inf]
        got = table.right_matrices(x)
        assert got.shape == (3, sig.dim, sig.dim)
        out = np.empty_like(got)
        assert table.right_matrices(x * table.involution_signs, out=out) is out
        for t in range(3):
            want = right_matrix(sig, x[t])
            np.testing.assert_array_equal(got[t], want)
            np.testing.assert_array_equal(out[t], want.T)
        y = random_mv(sig, rng)
        assert np.allclose(got[0] @ y.coeffs, (y * Multivector(sig, x[0])).coeffs, rtol=1e-12, atol=1e-12)

    def test_structure_scalars_in_range(self):
        sig = Signature(2, 1)
        table = product_table(sig)
        for a in range(sig.dim):
            for b in range(sig.dim):
                for c in range(sig.dim):
                    gamma = structure_scalar(sig, a, b, c)
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
                    via_gamma[a] += w.coeffs[b] * x.coeffs[c] * structure_scalar(sig, a, b, c)
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
        assert table.sign_left is None
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
        rng = np.random.default_rng(sig.n)
        a, b = rng.uniform(-1, 1, sig.dim), rng.uniform(-1, 1, sig.dim)
        table = product_table(sig)
        got = {kind: table.multiply(a, b, kind) for kind in PAIRS_KEPT}
        for k in rng.choice(sig.dim, size=3, replace=False):
            k = int(k)
            terms = [(i, i ^ k, blade_product(i, i ^ k, sig)[0] * a[i] * b[i ^ k]) for i in range(sig.dim)]
            for kind, out in got.items():
                kept = [t for i, j, t in terms if PAIRS_KEPT[kind](i, j)]
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


#: Signatures above the dense tables: n = 9 with p below, at and above the
#: 5 low basis vectors, n = 10 and 12 with mixed and one-sided metrics, and
#: n = 8 and 7, split 4 + 4 and 4 + 3.
SPLIT_SIGNATURES = [
    Signature(5, 4), Signature(2, 7), Signature(9, 0), Signature(6, 4),
    Signature(0, 10), Signature(3, 9), Signature(8, 4), Signature(4, 4), Signature(3, 4),
]


def split_operand(sig: Signature, rng, shape: str) -> np.ndarray:
    """A coefficient array shaped to hit the split kernel's special cases.

    'dense' fills every blade, 'vector' only the grade-1 ones, 'half' zeroes
    every other high row (the rows the kernel skips), and 'signed_zero' holds
    -0.0 in every third blade and in one whole high row.
    """
    x = rng.uniform(-1.0, 1.0, sig.dim)
    high_rows = x.reshape(product_table(sig)._factors()[1].dim, -1)
    if shape == "vector":
        x = np.zeros(sig.dim)
        x[1 << np.arange(sig.n)] = rng.uniform(-1.0, 1.0, sig.n)
    elif shape == "half":
        high_rows[1::2] = 0.0
    elif shape == "signed_zero":
        x[::3] = -0.0
        high_rows[-1] = -0.0
    return x


def takes_blocks(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ProductTable.multiply(a, b) above the dense tables runs as block products.

    It does when both operands are finite and neither holds a zero (or -0.0)
    coefficient.
    """
    return bool(a.all() and b.all() and np.isfinite(a).all() and np.isfinite(b).all())


class TestSplitKernel:
    """The signed-gather kernel above the dense tables against the gather-then-multiply loops."""

    @pytest.mark.parametrize("shape", ["dense", "vector", "half", "signed_zero"])
    @pytest.mark.parametrize("sig", SPLIT_SIGNATURES, ids=str)
    def test_matches_loop_oracle(self, sig, shape):
        rng = np.random.default_rng([sig.p, sig.q])
        table = product_table(sig)
        x = split_operand(sig, rng, shape)
        for a, b in ((x, split_operand(sig, rng, "dense")), (split_operand(sig, rng, "dense"), x)):
            got = table.multiply(a, b)
            want = split_multiply_oracle(table, a, b)
            scale = np.linalg.norm(a) * np.linalg.norm(b)
            if takes_blocks(a, b):
                assert np.max(np.abs(got - want)) <= 1e-12 * scale
            else:
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            for kind in ("outer", "left", "right"):
                diff = table.multiply(a, b, kind) - split_multiply_oracle(table, a, b, kind)
                assert np.max(np.abs(diff)) <= 1e-12 * scale, kind
        if sig.n <= 10:  # a left_matrix at n = 12 is a 128 MB array
            want = split_left_matrix_oracle(table, x)
            assert np.array_equal(table.left_matrix(x).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sig", [Signature(5, 4), Signature(0, 10)], ids=str)
    def test_non_finite_operands_match_loop_oracle(self, sig, bad):
        rng = np.random.default_rng(sig.n)
        table = product_table(sig)
        x = rng.uniform(-1.0, 1.0, sig.dim)
        x[[3, sig.dim - 5]] = bad  # in the first and the last high row
        y = rng.uniform(-1.0, 1.0, sig.dim)
        with np.errstate(invalid="ignore"):  # inf - inf in the sums
            for a, b in ((x, y), (y, x)):
                np.testing.assert_array_equal(table.multiply(a, b), split_multiply_oracle(table, a, b))
        np.testing.assert_array_equal(table.left_matrix(x), split_left_matrix_oracle(table, x))

    def test_left_matrix_of_integer_coefficients_is_float(self):
        for sig in (Signature(4, 4), Signature(5, 4)):
            a = np.arange(sig.dim)
            mat = product_table(sig).left_matrix(a)
            assert mat.dtype == np.float64 and np.array_equal(mat, product_table(sig).left_matrix(a.astype(float)))

    @pytest.mark.parametrize("kind", ["outer", "left", "right"])
    def test_graded_product_skips_dropped_pairs_of_an_inf(self, kind):
        # Above n = 6 a graded product gathers only the pairs it keeps, so an
        # inf in the left operand reaches just those; up to n = 6 every pair
        # is scaled by its sign, and 0 * inf puts NaN where a pair is dropped.
        rng = np.random.default_rng(21)
        # Factors in the low and the high half at n = 9 and at n = 8.
        legs = ((Signature(5, 4), 0b10010011), (Signature(4, 4), 0b10010011), (Signature(3, 3), 0b010011))
        for sig, blade in legs:
            dense_path = sig.n <= TABLE_MAX_DIMENSION
            table = product_table(sig)
            b = rng.uniform(0.5, 1.0, sig.dim) * rng.choice([-1.0, 1.0], sig.dim)
            unit = np.zeros(sig.dim)
            unit[blade] = 1.0
            kept = table.multiply(unit, b, kind)
            with np.errstate(invalid="ignore"):
                got = table.multiply(np.where(unit == 1.0, np.inf, 0.0), b, kind)
            if dense_path:
                assert np.isnan(got).any()
            else:
                np.testing.assert_array_equal(got, np.where(kept != 0.0, np.copysign(np.inf, kept), 0.0))


#: Every signature above the dense tables, 7 <= n <= 12.
BLOCK_SIGNATURES = [sig for sig in all_signatures(12) if sig.n > TABLE_MAX_DIMENSION]
#: IDEAL_SIGNATURES and the block signatures up to n = 10, each once.
FRAME_BLOCK_SIGNATURES = list(dict.fromkeys([*IDEAL_SIGNATURES, *(sig for sig in BLOCK_SIGNATURES if sig.n <= 10)]))


class TestBlockProduct:
    """Dense products above the dense tables as products of the ideal frame's blocks."""

    @pytest.mark.parametrize("sig", BLOCK_SIGNATURES, ids=str)
    def test_dense_product_matches_loop_oracle(self, sig):
        rng = np.random.default_rng([sig.p, sig.q, 9])
        table = product_table(sig)
        a, b = rng.uniform(-1.0, 1.0, (2, sig.dim))
        assert takes_blocks(a, b)
        diff = table.multiply(a, b) - split_multiply_oracle(table, a, b)
        assert np.max(np.abs(diff)) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)

    @pytest.mark.parametrize("sig", SPLIT_SIGNATURES, ids=str)
    def test_vectors_and_blades_keep_the_split_bits(self, sig):
        rng = np.random.default_rng([sig.p, sig.q, 11])
        table = product_table(sig)
        dense = rng.uniform(-1.0, 1.0, sig.dim)
        vector = split_operand(sig, rng, "vector")
        blade = np.zeros(sig.dim)
        blade[sig.dim - 1] = -0.75  # the pseudoscalar, as in a dual
        for a, b in ((vector, dense), (dense, vector), (dense, blade), (blade, dense)):
            want = split_multiply_oracle(table, a, b)
            assert np.array_equal(table.multiply(a, b).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sig", SPLIT_SIGNATURES, ids=str)
    def test_non_finite_operands_keep_the_split_kernel(self, sig, bad):
        # Through the blocks one inf would reach every coefficient.
        rng = np.random.default_rng([sig.p, sig.q, 12])
        table = product_table(sig)
        x, y = rng.uniform(-1.0, 1.0, (2, sig.dim))
        x[sig.dim // 2 + 1] = bad
        with np.errstate(invalid="ignore"):  # inf - inf in the sums
            for a, b in ((x, y), (y, x)):
                np.testing.assert_array_equal(table.multiply(a, b), split_multiply_oracle(table, a, b))

    def test_finite_dense_product_skips_the_split_loop(self, monkeypatch):
        sig = Signature(8, 4)
        rng = np.random.default_rng(3)
        a, b = random_mv(sig, rng), random_mv(sig, rng)
        want = a * b

        def split(*args):
            raise AssertionError("split loop")

        monkeypatch.setattr(product_table(sig), "_signs", split)
        assert (a * b).coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_operand_with_one_zero_skips_the_blocks(self, monkeypatch, zero):
        sig = Signature(8, 4)
        rng = np.random.default_rng(4)
        table = product_table(sig)
        a, b = rng.uniform(-1.0, 1.0, (2, sig.dim))
        a[sig.dim // 3] = zero

        def blocks(*args):
            raise AssertionError("block product")

        monkeypatch.setattr(table, "_block_product", blocks)
        for x, y in ((a, b), (b, a)):
            want = split_multiply_oracle(table, x, y)
            assert np.array_equal(table.multiply(x, y).view(np.int64), want.view(np.int64))

    def test_multiply_rows_is_per_row_multiply(self):
        sig = Signature(5, 4)
        rng = np.random.default_rng(13)
        table = product_table(sig)
        x = np.stack([split_operand(sig, rng, shape) for shape in ("dense", "vector", "half", "signed_zero")])
        for a in (rng.uniform(-1.0, 1.0, sig.dim), rng.uniform(-1.0, 1.0, x.shape)):
            rows = np.broadcast_to(a, x.shape)
            assert takes_blocks(rows[0], x[0]) and not takes_blocks(rows[1], x[1])
            want = np.array([table.multiply(a_l, x_l) for a_l, x_l in zip(rows, x)])
            assert np.array_equal(table.multiply_rows(a, x).view(np.int64), want.view(np.int64))

    #: sha256 of dense x dense products of fixed Cl(5,4), Cl(8,4), Cl(4,4)
    #: and Cl(3,4) operands in odd eighths up to 1.625, so no coefficient is
    #: zero: every partial sum of the transforms and the block products is
    #: exact, so the bits depend on no BLAS kernel and equal the split
    #: kernel's.
    DIGESTS = {
        (5, 4): "32f348c8896bb86ca13a1b92a9bb60f13237070b96db1ee162e5024146c7906d",
        (8, 4): "2b91d3438a3e37b7bf68bc173479ef87ec9a929fc268e15e8fc03f639883d3f1",
        (4, 4): "22665b18335256608761843f99c18290fb09ff9133235f7d5db230ec61fa506a",
        (3, 4): "8816724948cdaabd96de9453313a040ac3fd4bed6fec605416d8c4239b1bddc3",
    }

    @pytest.mark.parametrize("pq", list(DIGESTS), ids=str)
    def test_output_bytes_pinned(self, pq):
        sig = Signature(*pq)
        k = np.arange(sig.dim)
        a, b = ((7 * k) % 13 - 6.5) / 4, ((5 * k) % 11 - 5.5) / 4
        assert takes_blocks(a, b)
        table = product_table(sig)
        got = table.multiply(a, b)
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.DIGESTS[pq]
        assert got.tobytes() == split_multiply_oracle(table, a, b).tobytes()


#: One or two signatures per n = 7 ... 12 for the bit test of the split kernel.
LOOP_BIT_SIGNATURES = [
    Signature(3, 4), Signature(7, 0), Signature(4, 4), Signature(0, 8), Signature(5, 4), Signature(2, 7),
    Signature(6, 4), Signature(0, 10), Signature(6, 5), Signature(8, 4), Signature(3, 9),
]


def loop_bit_operands(sig: Signature, rng) -> dict:
    """Operands of every case the split kernel meets, by name.

    'dense' fills every blade; 'half' zeroes every other high row; 'signed_zero'
    holds -0.0 and +0.0 in every high row; 'vector', 'blade' (the pseudoscalar),
    'even' and 'zero' are structured; 'inf' and 'nan' are dense with a few
    non-finite blades.
    """
    table = product_table(sig)
    ops = {"dense": rng.uniform(-1.0, 1.0, sig.dim)}
    for shape in ("half", "vector"):
        ops[shape] = split_operand(sig, rng, shape)
    x = rng.uniform(-1.0, 1.0, sig.dim)
    x[::3], x[1::7] = -0.0, 0.0
    ops["signed_zero"] = x
    ops["blade"] = np.where(np.arange(sig.dim) == sig.dim - 1, -0.75, 0.0)
    ops["even"] = np.where(table.grades % 2 == 0, rng.uniform(-1.0, 1.0, sig.dim), 0.0)
    ops["zero"] = np.zeros(sig.dim)
    for name, bad in (("inf", np.inf), ("nan", np.nan)):
        x = rng.uniform(-1.0, 1.0, sig.dim)
        x[[3, sig.dim // 2 + 1]], x[sig.dim - 5] = bad, -bad
        ops[name] = x
    return ops


class TestSplitKernelBits:
    """Both paths of the split kernel, the batched one and the row loop, keep the loop's bits.

    Up to n = 10 a left operand with every high row live takes one batched
    gather-matmul per group of rows; every other split product loops over the
    live rows.  Either must equal `split_loop_oracle` byte for byte, NaN signs
    included.
    """

    @pytest.mark.parametrize("sig", LOOP_BIT_SIGNATURES, ids=str)
    def test_every_split_product_equals_the_loop_byte_for_byte(self, sig):
        rng = np.random.default_rng([sig.p, sig.q, 36])
        table = product_table(sig)
        other = rng.uniform(-1.0, 1.0, sig.dim)
        ops = loop_bit_operands(sig, rng)
        cases = [(f"{name} x dense", x, other) for name, x in ops.items()]
        cases += [(f"dense x {name}", other, x) for name, x in ops.items()]
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf in the sums
            for name, a, b in cases:
                for kind in PAIRS_KEPT:
                    if kind is None and takes_blocks(a, b):
                        continue
                    want = split_loop_oracle(table, a, b, kind)
                    assert table.multiply(a, b, kind).tobytes() == want.tobytes(), (name, kind)

    @pytest.mark.parametrize("sig", [Signature(3, 4), Signature(6, 4), Signature(6, 5)], ids=str)
    def test_live_rows_up_to_n_10_take_the_batched_path(self, monkeypatch, sig):
        rng = np.random.default_rng([sig.p, sig.q, 37])
        table = product_table(sig)
        batched = []
        product = table._batched_product
        monkeypatch.setattr(table, "_batched_product", lambda *args: batched.append(1) or product(*args))
        a, b = rng.uniform(-1.0, 1.0, (2, sig.dim))
        vector = split_operand(sig, rng, "vector")
        cases = ((a, b, "outer", sig.n <= 10), (vector, b, "outer", False), (a, vector, None, sig.n <= 10))
        for x, y, kind, batches in cases:
            batched.clear()
            got = table.multiply(x, y, kind)
            assert len(batched) == batches
            assert got.tobytes() == split_loop_oracle(table, x, y, kind).tobytes()

    def test_inf_on_the_right_gives_the_documented_nans(self):
        # README: with Cl(5,4), a dense finite left operand and an inf on blade
        # 147 of the right one, 224 of the 512 outer-product outputs and 48
        # left-contraction outputs are NaN.
        sig = Signature(5, 4)
        rng = np.random.default_rng(147)
        table = product_table(sig)
        a, b = rng.uniform(-1.0, 1.0, (2, sig.dim))
        b[147] = np.inf
        with np.errstate(invalid="ignore"):
            outer, left = table.multiply(a, b, "outer"), table.multiply(a, b, "left")
        assert np.isnan(outer).sum() == 224 and np.isnan(left).sum() == 48


def grade_filled(sig: Signature, rng, keep) -> Multivector:
    """Random coefficients on the blades whose grade passes ``keep``, zeros elsewhere."""
    grades = product_table(sig).grades
    return Multivector(sig, np.where(keep(grades), rng.uniform(-1.0, 1.0, sig.dim), 0.0))


@pytest.mark.parametrize("sig", [Signature(5, 4), Signature(6, 4), Signature(8, 4), Signature(4, 4)], ids=str)
class TestExactGradeStructure:
    """Above the dense tables a product puts no roundoff in blades that no blade pair reaches."""

    def test_bivector_product_has_grades_0_2_4(self, sig):
        rng = np.random.default_rng([sig.p, sig.q, 30])
        b, c = (grade_filled(sig, rng, lambda g: g == 2) for _ in range(2))
        assert set((b * c).grades()) <= {0, 2, 4}

    def test_even_times_odd_is_exactly_odd(self, sig):
        rng = np.random.default_rng([sig.p, sig.q, 31])
        even = grade_filled(sig, rng, lambda g: g % 2 == 0)
        odd = grade_filled(sig, rng, lambda g: g % 2 == 1)
        for product in (even * odd, odd * even):
            assert np.all(product.coeffs[product_table(sig).grades % 2 == 0] == 0.0)


#: Left operands with few nonzeros are checked at n = 8, 7, 6 and 4.
SMALL_OPERAND_SIGNATURES = [Signature(4, 4), Signature(3, 4), Signature(0, 6), Signature(2, 2)]
#: Those of them with the dense pair tables.
DENSE_TABLE_SIGNATURES = [sig for sig in SMALL_OPERAND_SIGNATURES if sig.n <= TABLE_MAX_DIMENSION]


def sparse_operand(sig: Signature, rng, shape: str) -> np.ndarray:
    """A left operand with few nonzeros, or a dense one.

    'zero', 'blade' (one basis blade), 'vector' (grade 1), 'bivector' (the
    2-blade u ^ v of two vectors), or 'dense'.
    """
    x = np.zeros(sig.dim)
    if shape == "blade":
        x[rng.integers(sig.dim)] = rng.uniform(0.5, 1.0)
    elif shape == "vector":
        x[1 << np.arange(sig.n)] = rng.uniform(-1.0, 1.0, sig.n)
    elif shape == "bivector":
        u, v = rng.uniform(-1.0, 1.0, (2, sig.n))
        for i in range(sig.n):
            for j in range(i + 1, sig.n):
                x[1 << i | 1 << j] = u[i] * v[j] - u[j] * v[i]
    elif shape == "dense":
        x = rng.uniform(-1.0, 1.0, sig.dim)
    return x


class TestSparseLeftKernel:
    """Left operands with few nonzeros, on the dense tables and above them.

    The class keeps the name it had when the dense tables had a kernel of
    their own for such operands, so that its test ids stay stable.
    """

    @pytest.mark.parametrize("shape", ["zero", "blade", "vector", "bivector"])
    @pytest.mark.parametrize("sig", SMALL_OPERAND_SIGNATURES, ids=str)
    def test_matches_blade_oracle(self, sig, shape):
        rng = np.random.default_rng([sig.p, sig.q, len(shape)])
        table = product_table(sig)
        a, b = sparse_operand(sig, rng, shape), rng.uniform(-1.0, 1.0, sig.dim)
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        for kind in PAIRS_KEPT:
            want = product_oracle(Multivector(sig, a), Multivector(sig, b), kind)
            assert np.max(np.abs(table.multiply(a, b, kind) - want)) <= 1e-12 * scale, kind

    @pytest.mark.parametrize("sig", DENSE_TABLE_SIGNATURES, ids=str)
    def test_full_gather_operands_keep_their_bits(self, sig):
        # On the dense tables every operand takes the full gather, bit for bit.
        rng = np.random.default_rng([sig.p, sig.q, 7])
        table = product_table(sig)
        for shape in ["dense", "zero", "blade", "vector", "bivector"]:
            a, b = sparse_operand(sig, rng, shape), rng.uniform(-1.0, 1.0, sig.dim)
            for kind in PAIRS_KEPT:
                want = dense_table_oracle(table, a, b, kind)
                got = table.multiply(a, b, kind)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (shape, kind)

    @pytest.mark.parametrize("kind", PAIRS_KEPT)
    def test_vector_product_skips_the_full_gather(self, kind):
        # A full gather of a[xor] at n = 8 would alone take 512 KB.
        sig = Signature(4, 4)
        rng = np.random.default_rng(5)
        table = product_table(sig)
        a, b = sparse_operand(sig, rng, "vector"), rng.uniform(-1.0, 1.0, sig.dim)
        table.multiply(a, b, kind)  # builds the sign table of kind before tracing
        tracemalloc.start()
        try:
            table.multiply(a, b, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024


#: sha256 of the tables test_sign_tables_pinned reads, over all 90 signatures with n <= 12.
SIGN_TABLES_SHA256 = "3203c7c579d81b44ff12993000a1a2f63ecc4467eaad97a0508e5cc7bf3f9f88"


class TestPairSigns:
    """The one sign routine, (-1)^|flips[A] & B|, at every dimension."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_blade_product_on_all_pairs(self, n):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            idx = np.arange(sig.dim)
            want = [[blade_product(a, b, sig)[0] for b in range(sig.dim)] for a in range(sig.dim)]
            np.testing.assert_array_equal(product_table(sig)._pair_signs(idx[:, None], idx[None, :]), want)

    @pytest.mark.parametrize("sig", [Signature(5, 4), Signature(6, 4), Signature(0, 10), Signature(8, 4), Signature(12, 0)], ids=str)
    def test_matches_blade_product_on_random_pairs(self, sig):
        # The masks run up to bit n - 1, past the uint8 that bitwise_count returns.
        rng = np.random.default_rng([sig.p, sig.q])
        a, b = rng.integers(0, sig.dim, size=(2, 3000))
        want = [blade_product(i, j, sig)[0] for i, j in zip(a.tolist(), b.tolist())]
        np.testing.assert_array_equal(product_table(sig)._pair_signs(a, b), want)

    def test_sign_tables_pinned(self):
        # Every sign and index table the product reads, of every signature,
        # as float64 values, so the digest pins values, not integer dtypes.
        digest = hashlib.sha256()
        for sig in all_signatures(12):
            table = product_table(sig)
            tables = [table.grades, table.reverse_signs, table.square_signs]
            if sig.n <= TABLE_MAX_DIMENSION:
                tables += [table.xor, table.sign_left] + [table._signs(kind) for kind in PAIRS_KEPT]
            else:
                for kind in PAIRS_KEPT:
                    low_index, rows, _ = table._signs(kind)
                    tables.append(low_index)
                    for cols, gather in rows:
                        tables += [np.arange(len(rows))[cols], gather]
            frame = ideal_frame(sig)
            tables += [frame.chars, frame.signs]
            for x in tables:
                digest.update(np.asarray(x, dtype=np.float64).tobytes())
        assert digest.hexdigest() == SIGN_TABLES_SHA256


#: Signatures of the support product: the dense tables at n = 3, the split path at n = 8, 9, 10, 12.
SUPPORT_SIGNATURES = [Signature(2, 1), Signature(4, 4), Signature(5, 4), Signature(6, 4), Signature(8, 4)]


def support(sig: Signature, rng, shape: str) -> np.ndarray:
    """Sorted blade masks: none, one blade, the vectors, the 2-blades, or a random subset."""
    masks = np.arange(sig.dim)
    grades = product_table(sig).grades
    if shape == "empty":
        return masks[:0]
    if shape == "blade":
        return rng.integers(0, sig.dim, size=1)
    if shape == "vector":
        return masks[grades == 1]
    if shape == "bivector":
        return masks[grades == 2]
    return np.sort(rng.choice(sig.dim, size=min(sig.dim, 60), replace=False))


def support_product_oracle(sig: Signature, ia, av, ib, bv, kind=None) -> np.ndarray:
    """Blade-by-blade sum over the support pairs ``kind`` keeps, in pair order (ia first)."""
    keep = PAIRS_KEPT[kind]
    out = np.zeros(sig.dim)
    for i, x in zip(ia.tolist(), av.tolist()):
        for j, y in zip(ib.tolist(), bv.tolist()):
            if keep(i, j):
                sign, c = blade_product(i, j, sig)
                out[c] += sign * x * y
    return out


class TestSupportProduct:
    """The product of two operands given by their supports, without BLAS."""

    @pytest.mark.parametrize("shapes", [("empty", "random"), ("blade", "random"), ("vector", "bivector"),
                                        ("bivector", "vector"), ("random", "random"), ("vector", "empty")])
    @pytest.mark.parametrize("values", ["unit", "underflow", "dropped-overflow"])
    @pytest.mark.parametrize("sig", SUPPORT_SIGNATURES, ids=str)
    def test_matches_blade_product_sum_in_pair_order(self, sig, shapes, values):
        # Each pair adds its term to the sum in pair order, so the bits match
        # the loop's exactly.  At 1e-170 every pair's term underflows to
        # +-0.0.  With 1e200 on both blades of a pair that the kind drops,
        # that pair's term would overflow, so it must never be formed.
        rng = np.random.default_rng([sig.p, sig.q, len(shapes[0]), len(shapes[1])])
        ia, ib = support(sig, rng, shapes[0]), support(sig, rng, shapes[1])
        av, bv = rng.uniform(-1.0, 1.0, ia.size), rng.uniform(-1.0, 1.0, ib.size)
        if values == "underflow":
            av, bv = av * 1e-170, bv * 1e-170
        table = product_table(sig)
        for kind in PAIRS_KEPT:
            a, b = av, bv
            dropped = np.argwhere(~np.broadcast_to(PAIRS_KEPT[kind](ia[:, None], ib[None, :]), (ia.size, ib.size)))
            if values == "dropped-overflow" and dropped.size:
                (s, t), a, b = dropped[0], av.copy(), bv.copy()
                a[s] = b[t] = 1e200
            want = support_product_oracle(sig, ia, a, ib, b, kind)
            with np.errstate(over="raise"):
                got = table._support_product(ia, a, ib, b, kind)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), kind

    @pytest.mark.parametrize("sig", SUPPORT_SIGNATURES, ids=str)
    def test_grade_filter_is_the_grade_part(self, sig):
        rng = np.random.default_rng(sig.n)
        table = product_table(sig)
        ia, ib = support(sig, rng, "random"), support(sig, rng, "random")
        av, bv = rng.uniform(-1.0, 1.0, ia.size), rng.uniform(-1.0, 1.0, ib.size)
        for kind in PAIRS_KEPT:
            whole = Multivector(sig, table._support_product(ia, av, ib, bv, kind))
            for grade in range(sig.n + 1):
                got = table._support_product(ia, av, ib, bv, kind, grade)
                assert np.array_equal(got.view(np.int64), whole.grade(grade).coeffs.view(np.int64)), (kind, grade)


def ideal_cosets(sig: Signature) -> list[list[int]]:
    """Ideal indices grouped by the sign flips that conjugation by basis vectors makes.

    Commutation is read off blade_product in both orders, independently of
    the grade formula the frame uses.
    """
    frame = ideal_frame(sig)
    flips = {0}
    for j in range(sig.n):
        vec = 1 << j
        pat = sum(1 << i for i, a in enumerate(frame.blades) if blade_product(vec, a, sig) != blade_product(a, vec, sig))
        flips |= {g ^ pat for g in flips}
    cosets = {frozenset(e ^ g for g in flips) for e in range(2 ** len(frame.blades))}
    return sorted(sorted(c) for c in cosets)


class TestIdealFrame:
    @pytest.mark.parametrize("sig", IDEAL_SIGNATURES, ids=str)
    def test_blades_commute_square_to_one_and_are_independent(self, sig):
        frame = ideal_frame(sig)
        for i, a in enumerate(frame.blades):
            assert blade_product(a, a, sig) == (1, 0)
            for b in frame.blades[:i]:
                assert blade_product(a, b, sig) == blade_product(b, a, sig)
        r, k = frame.support.shape
        assert k == 2 ** len(frame.blades) and r * k == sig.dim
        assert sorted(frame.support.ravel()) == list(range(sig.dim))

    @pytest.mark.parametrize("sig", list(all_signatures(8)), ids=str)
    def test_greedy_blades_match_blade_product_oracle(self, sig):
        # By ascending mask, every unit-square blade outside the span of those
        # chosen that commutes with each of them.
        chosen, span = [], {0}
        for a in range(1, sig.dim):
            if blade_product(a, a, sig) != (1, 0) or a in span:
                continue
            if any(blade_product(a, b, sig) != blade_product(b, a, sig) for b in chosen):
                continue
            chosen.append(a)
            span |= {s ^ a for s in span}
        assert ideal_frame(sig).blades == tuple(chosen)

    def test_frame_bytes_pinned(self):
        # blades, classes, support, signs and chars of every signature.
        digest = hashlib.sha256()
        for sig in all_signatures(12):
            frame = ideal_frame(sig)
            digest.update(np.array(frame.blades + (-1,) + frame.classes, dtype=np.int64).tobytes())
            for x in (frame.support.astype(np.int64), frame.signs, frame.chars):
                digest.update(x.tobytes())
        assert digest.hexdigest() == "5fcf84beaa10b111bf54fa4c80fe93ba533a762ffac2976c5da2f5910a944bf6"

    def test_greedy_blades_in_ascending_order(self):
        # Cl(0,6): e123, e145 and e246 are the first commuting unit-square blades.
        assert ideal_frame(Signature(0, 6)).blades == (0b000111, 0b011001, 0b101010)
        assert ideal_frame(Signature(0, 2)).blades == ()

    @pytest.mark.parametrize("sig", IDEAL_SIGNATURES, ids=str)
    def test_bases_orthonormal(self, sig):
        u = dense_ideal_bases(sig)
        stacked = np.concatenate(list(u), axis=1)
        assert np.allclose(stacked.T @ stacked, np.eye(sig.dim), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("sig", FRAME_BLOCK_SIGNATURES, ids=str)
    def test_blocks_are_the_dense_blocks_of_left_matrix(self, sig):
        # The transform of each row of a stack, read through the block
        # product's left table, gives U_e^T L(a_l) U_e of every class e.
        rng = np.random.default_rng([sig.p, sig.q, 10])
        table = product_table(sig)
        frame = ideal_frame(sig)
        u = dense_ideal_bases(sig)
        a = rng.uniform(-1.0, 1.0, (2, sig.dim))
        got = frame.blocks(a)
        r = sig.dim // len(u)
        assert got.shape == (2, len(frame.classes), r, r)
        for a_l, blocks in zip(a, got):
            mat = table.left_matrix(a_l)
            for e, block in zip(frame.classes, blocks):
                want = u[e].T @ mat @ u[e]
                assert np.max(np.abs(block - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("sig", IDEAL_SIGNATURES, ids=str)
    def test_left_matrix_is_block_diagonal(self, sig):
        # Zero off the diagonal blocks, and frame.blocks on those of the classes.
        rng = np.random.default_rng(sig.dim)
        w = rng.uniform(-1.0, 1.0, size=sig.dim)
        mat = product_table(sig).left_matrix(w)
        u = dense_ideal_bases(sig)
        frame = ideal_frame(sig)
        blocks = dict(zip(frame.classes, frame.blocks(w[None])[0]))
        scale = np.abs(mat).sum(axis=1).max()
        for e in range(len(u)):
            for f in range(len(u)):
                reduced = u[e].T @ mat @ u[f]
                if e != f:
                    assert np.max(np.abs(reduced)) <= 1e-13 * scale
                elif e in blocks:
                    assert np.max(np.abs(reduced - blocks[e])) <= 1e-13 * scale

    @pytest.mark.parametrize("sig", list(all_signatures(8)), ids=str)
    def test_two_classes_exactly_when_p_minus_q_is_1_mod_4(self, sig):
        assert len(ideal_frame(sig).classes) == (2 if (sig.p - sig.q) % 4 == 1 else 1)

    @pytest.mark.parametrize("sig", list(all_signatures(8)), ids=str)
    def test_classes_match_coset_oracle(self, sig):
        assert ideal_frame(sig).classes == tuple(min(c) for c in ideal_cosets(sig))

    @pytest.mark.parametrize("sig", IDEAL_SIGNATURES, ids=str)
    def test_blocks_in_one_coset_share_their_spectrum(self, sig):
        # Each class block from frame.blocks, the other ideals' from the dense U_e.
        cosets = ideal_cosets(sig)
        rng = np.random.default_rng(sig.dim + 1)
        blocks = every_ideal_block(sig, rng.uniform(-1.0, 1.0, size=(1, sig.dim)))[0]
        for coset in cosets:
            ref = np.linalg.eigvals(blocks[min(coset)])
            tol = 1e-10 * np.max(np.abs(ref))
            for e in coset:
                # Match eigenvalues by nearest neighbour: repeated eigenvalues
                # and equal real parts make a plain sort order unstable.
                rest = list(np.linalg.eigvals(blocks[e]))
                for lam in ref:
                    k = int(np.argmin(np.abs(np.array(rest) - lam)))
                    assert abs(rest.pop(k) - lam) <= tol


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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sums_add_left_to_right_bit_for_bit(self, n):
        # modulus and scalar_product add their terms one at a time from the
        # first, as the training sums do, so their bits depend on no BLAS
        # kernel; a ddot's differed between OpenBLAS's SkylakeX and Haswell.
        # With e_A~ e_A = 1 the scalar product of x and x~ is |x|^2.
        rng = np.random.default_rng(90 + n)
        sig = Signature(n // 2, n - n // 2)
        signs = product_table(sig).square_signs
        for _ in range(30):
            x = Multivector(sig, rng.standard_normal(sig.dim) * 10.0 ** rng.uniform(-3.0, 3.0, sig.dim))
            y = random_mv(sig, rng)
            want = square_sum_reference(x.coeffs)
            assert np.sqrt(want).tobytes() == np.float64(x.modulus()).tobytes()
            assert np.float64(want).tobytes() == np.float64(x.scalar_product(x.involution())).tobytes()
            terms = (x.coeffs * signs * y.coeffs).tolist()
            total = terms[0]
            for t in terms[1:]:
                total += t
            assert total == x.scalar_product(y)

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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lexical_order_matches_sort_key(self, n):
        got = _lexical_order(n)
        assert got.dtype == np.intp and np.array_equal(got, lexical_order_oracle(n))

    def test_blade_labels(self):
        assert blade_label(0) == "1"
        assert blade_label(0b101) == "e13"
        assert blade_label(0b10000000001) == "e1_11"  # two-digit factor index

    def test_scalar_arithmetic_operators(self):
        m = Multivector(QUAT, [2.0, -4.0, 6.0, 0.0])
        assert (m / 2.0) == Multivector(QUAT, [1.0, -2.0, 3.0, 0.0])
        assert (0.5 * m) == (m * 0.5)
        assert Multivector(m.sig, m.coeffs) == m
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

    @pytest.mark.parametrize(
        "text", ["0,1:[3,,4,]", "0,2:[1,,2,3,4]", "0,2:[1,,2,3]", "0,2:[1, 2, 3, 4,]", "0,1:[,]"]
    )
    def test_rejects_empty_fields(self, text):
        with pytest.raises(ValueError, match="empty field"):
            parse_multivector(text)
