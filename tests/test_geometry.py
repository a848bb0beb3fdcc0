"""Graded products, contractions, inverses, projections, duality, OPNS/IPNS."""

import hashlib
import tracemalloc

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
from hyperfir.algebra import product_table

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

    @pytest.mark.parametrize("sig", [Signature(5, 4), Signature(6, 4), Signature(8, 4), Signature(4, 4)], ids=str)
    def test_blade_projection_above_the_dense_tables_is_exactly_odd(self, sig):
        # A 3-blade projected onto a 5-blade has odd grades only; no roundoff
        # may reach the even blades, which no blade pair of either product hits.
        rng = np.random.default_rng([sig.p, sig.q, 32])
        out = project_blade(random_blade(sig, rng, 3), random_blade(sig, rng, 5))
        assert out.grades() and np.all(out.coeffs[product_table(sig).grades % 2 == 0] == 0.0)


#: Signatures on the split product path: n = 9, 9, 10, 12, 8 and 7.
SPLIT_SIGNATURES = [
    Signature(5, 4), Signature(2, 7), Signature(6, 4), Signature(8, 4), Signature(4, 4), Signature(3, 4),
]


def metric(sig):
    return np.array([1.0] * sig.p + [-1.0] * sig.q)


def spanning_vectors(sig, rng, grade):
    """Rows of `grade` random vectors whose metric Gram matrix is well conditioned."""
    g = metric(sig)
    while True:
        vs = rng.uniform(-1.0, 1.0, size=(grade, sig.n))
        if np.linalg.cond(vs @ (g[:, None] * vs.T)) < 20:
            return vs


def wedge(sig, vs):
    blade = Multivector.scalar(sig, 1.0)
    for v in vs:
        blade = outer_product(blade, Multivector.from_vector(sig, v))
    return blade


def gram_projection(sig, vs, a):
    """Metric-orthogonal projection of the components a onto the span of the rows of vs."""
    g = metric(sig)
    return np.linalg.solve(vs @ (g[:, None] * vs.T), vs @ (g * a)) @ vs


def dense_forms(a, blade):
    """project, reject, project_blade and the two membership tests as dense products, the forms of their fallback."""
    inverse = blade_inverse(blade)
    bound = 1e-9 * a.modulus() * blade.modulus()
    return (
        (left_contraction(a, blade) * inverse).grade(1),
        (outer_product(a, blade) * inverse).grade(1),
        left_contraction(a, blade) * inverse,
        outer_product(a, blade).modulus() <= bound,
        left_contraction(a, blade).modulus() <= bound,
    )


def subspace_forms(a, blade):
    return project(a, blade), reject(a, blade), project_blade(a, blade), opns_member(a, blade), ipns_member(a, blade)


def same_bits(got, want) -> bool:
    if isinstance(want, Multivector):
        return got.coeffs.tobytes() == want.coeffs.tobytes()
    return got == want


class TestSubspaceOperationsOnSupports:
    """project, reject and project_blade above the dense tables, where they pair the two supports."""

    @pytest.mark.parametrize("grade", [1, 2, 3])
    @pytest.mark.parametrize("sig", SPLIT_SIGNATURES, ids=str)
    def test_match_gram_projection(self, sig, grade):
        rng = np.random.default_rng([sig.p, sig.q, grade])
        vectors = [1 << k for k in range(sig.n)]
        for _ in range(3):
            vs = spanning_vectors(sig, rng, grade)
            blade = wedge(sig, vs)
            a = random_vector(sig, rng)
            want = gram_projection(sig, vs, a.coeffs[vectors])
            tol = 1e-12 * a.modulus()
            assert np.max(np.abs(project(a, blade).coeffs[vectors] - want)) <= tol
            assert np.max(np.abs(reject(a, blade).coeffs[vectors] - (a.coeffs[vectors] - want))) <= tol
            # The grade-1 pairs of project_blade are project's, in the same order.
            assert same_bits(project_blade(a, blade).grade(1), project(a, blade))

    @pytest.mark.parametrize("sig", SPLIT_SIGNATURES, ids=str)
    def test_exactly_grade_one_and_complementary(self, sig):
        rng = np.random.default_rng(sig.n)
        off = product_table(sig).grades != 1
        for grade in (1, 2, 3):
            blade = wedge(sig, spanning_vectors(sig, rng, grade))
            a = random_vector(sig, rng)
            p, r = project(a, blade), reject(a, blade)
            assert not p.coeffs[off].any() and not r.coeffs[off].any()
            assert_close_mv(p + r, a, rtol=1e-12)

    @pytest.mark.parametrize("sig", SPLIT_SIGNATURES, ids=str)
    def test_membership(self, sig):
        rng = np.random.default_rng([sig.n, 1])
        vs = spanning_vectors(sig, rng, 3)
        blade = wedge(sig, vs)
        member = Multivector.from_vector(sig, rng.uniform(-2.0, 2.0, 3) @ vs)
        outside = member + 3.0 * reject(random_vector(sig, rng), blade)
        assert opns_member(member, blade) and ipns_member(member, dual(blade))
        assert not opns_member(outside, blade) and not ipns_member(outside, dual(blade))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sig", SPLIT_SIGNATURES, ids=str)
    def test_non_finite_operands_keep_the_dense_bits(self, sig, bad):
        rng = np.random.default_rng(sig.n)
        a = random_vector(sig, rng)
        blade = wedge(sig, spanning_vectors(sig, rng, 2))
        bad_a = Multivector(sig, np.where(np.arange(sig.dim) == 2, bad, a.coeffs))
        bad_blade = Multivector(sig, np.where(np.arange(sig.dim) == 3, bad, blade.coeffs))
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and 0 * inf in the sums
            for x, b in ((bad_a, blade), (a, bad_blade)):
                for got, want in zip(subspace_forms(x, b), dense_forms(x, b)):
                    assert same_bits(got, want)

    def test_dense_onto_takes_the_dense_products_in_bounded_memory(self):
        # A vector and a dense onto at n = 12 form 12 pairs per blade, past
        # the cap; the contraction's ~2000 blades with onto's 4096 would form
        # 10^7.
        sig = Signature(8, 4)
        rng = np.random.default_rng(12)
        a, onto = random_vector(sig, rng), random_mv(sig, rng)
        want = dense_forms(a, onto)
        tracemalloc.start()
        try:
            got = subspace_forms(a, onto)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert peak < 1 << 20

    @pytest.mark.parametrize("sig", [Signature(2, 1), Signature(8, 4)], ids=str)
    def test_errors_unchanged(self, sig):
        rng = np.random.default_rng(0)
        a, blade = random_vector(sig, rng), wedge(sig, spanning_vectors(sig, rng, 2))
        null = Multivector.from_vector(sig, np.eye(sig.n)[0] + np.eye(sig.n)[sig.p])  # e1 + e_{p+1}
        for op in (project, reject):
            for bad in (blade, a + Multivector.scalar(sig, 1.0)):
                with pytest.raises(ValueError, match="expected a grade-1 input"):
                    op(bad, blade)
        for op in (project, reject, project_blade):
            for onto in (Multivector.zero(sig), null, outer_product(null, Multivector.basis_blade(sig, 2))):
                with pytest.raises(IsotropicBladeError):
                    op(a, onto)
        for op in (opns_member, ipns_member):
            with pytest.raises(ValueError, match="expected a grade-1 input"):
                op(blade, blade)

    #: sha256 of the project and reject outputs on fixed Cl(5,4) and Cl(8,4)
    #: inputs.  Their sums run in pair order outside BLAS, so the bits depend
    #: on no CPU kernel.
    DIGESTS = {
        (5, 4): "873db987794dc017323f929030206397deff17c3ce1b955727fc0a672fef562e",
        (8, 4): "d0b85da82e61a23f4ba7887b3b8f34e739ce376a5580c172e79b3bc201f4317b",
    }

    @pytest.mark.parametrize("pq", list(DIGESTS), ids=str)
    def test_output_bytes_pinned(self, pq):
        sig = Signature(*pq)
        k = np.arange(sig.n)
        a = Multivector.from_vector(sig, ((5 * k) % 11 - 5.5) / 4)
        u, v = ((3 * k) % 7 - 3.5) / 2, ((2 * k + 1) % 5 - 2.5) / 2
        plane = np.zeros(sig.dim)  # u ^ v, written out so that no BLAS product builds it
        for i in range(sig.n):
            for j in range(i + 1, sig.n):
                plane[(1 << i) | (1 << j)] = u[i] * v[j] - u[j] * v[i]
        blade = Multivector(sig, plane)
        out = project(a, blade).coeffs.tobytes() + reject(a, blade).coeffs.tobytes()
        assert hashlib.sha256(out).hexdigest() == self.DIGESTS[pq]


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


#: Signatures on the split product path for dual: n = 9, 9, 10, 10, 12, 8 and 7.
DUAL_SIGNATURES = [
    Signature(5, 4), Signature(2, 7), Signature(6, 4), Signature(0, 10), Signature(8, 4), Signature(4, 4), Signature(3, 4),
]


def dual_operands(sig, rng):
    """A dense, a vector and two operands holding 0.0 and -0.0 among their coefficients."""
    dense = rng.uniform(-1.0, 1.0, size=sig.dim)
    holed = np.where(rng.uniform(size=sig.dim) < 0.3, 0.0, dense)
    signed_zeros = np.where(rng.uniform(size=sig.dim) < 0.5, -0.0, holed)
    vector = random_vector(sig, rng).coeffs.copy()
    vector[1 << (sig.n - 1)] = -0.0
    return [Multivector(sig, c) for c in (dense, random_vector(sig, rng).coeffs, holed, signed_zeros, vector)]


class TestDualOnSupports:
    """dual above the dense tables, where it pairs a's support with the one blade of I^-1."""

    @pytest.mark.parametrize("sig", DUAL_SIGNATURES, ids=str)
    def test_dense_product_bits(self, sig):
        inverse = blade_inverse(pseudoscalar(sig))
        for a in dual_operands(sig, np.random.default_rng(sig.n)):
            assert same_bits(dual(a), a * inverse)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("sig", DUAL_SIGNATURES, ids=str)
    def test_non_finite_operands_keep_the_dense_bits(self, sig, bad):
        inverse = blade_inverse(pseudoscalar(sig))
        for a in dual_operands(sig, np.random.default_rng([sig.n, 2])):
            bad_a = Multivector(sig, np.where(np.arange(sig.dim) == 5, bad, a.coeffs))
            with np.errstate(invalid="ignore"):  # inf * 0 in the dense sums
                assert same_bits(dual(bad_a), bad_a * inverse)

    def test_finite_operands_take_no_dense_product(self, monkeypatch):
        sig = Signature(8, 4)
        a = random_mv(sig, np.random.default_rng(3))
        want = a * blade_inverse(pseudoscalar(sig))

        def dense(*args):
            raise AssertionError("dense product")

        monkeypatch.setattr(product_table(sig), "multiply", dense)
        assert same_bits(dual(a), want)

    #: sha256 of the dual of fixed dense Cl(5,4) and Cl(8,4) inputs.  Each
    #: entry is one term added through np.bincount, so the bits depend on no
    #: CPU kernel.
    DIGESTS = {
        (5, 4): "274596b8c3a634113f8a73cbaef55520ef7b707eb5091b1e80f8fa25ceab11ac",
        (8, 4): "33ce3ad4711878384bc747d34c144927bff11c25f3bd34309a24bb702e07e620",
    }

    @pytest.mark.parametrize("pq", list(DIGESTS), ids=str)
    def test_output_bytes_pinned(self, pq):
        sig = Signature(*pq)
        k = np.arange(sig.dim)
        a = Multivector(sig, ((7 * k) % 13 - 6) / 4)  # a zero in every 13 entries
        assert hashlib.sha256(dual(a).coeffs.tobytes()).hexdigest() == self.DIGESTS[pq]


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
