"""Dense real Clifford algebra Cl(p,q) over bitmask-indexed basis blades.

A basis blade e_{h1} e_{h2} ... e_{hr} (1 <= h1 < ... < hr <= n) is stored as
the n-bit mask with bit (h-1) set for every factor h; the empty mask is the
scalar blade 1.  The geometric product of two basis blades is then

    e_A e_B = sign(A, B) * e_{A xor B},

where sign(A, B) combines the parity of the transpositions needed to reorder
the factors into canonical ascending order with the metric signs e_k^2 of the
repeated factors.  Multivectors are flat float64 coefficient arrays of length
2^n indexed by those masks, which keeps every algebra operation a dense numpy
computation.

Basis vectors square to +1 for the first p indices and to -1 for the
remaining q, so Cl(0,2) reproduces the quaternions under 1, e1, e2, e12 and
Cl(0,1) the complex numbers.

Up to n = 8 the signs of all blade pairs sit in one dense 2^n x 2^n table,
and a product gathers all 4^n pairs from it, unless the left operand has few
nonzeros: then only the nnz 2^n pairs of its nonzero blades A are read.
Since e_A e_{A^k} e_k = sign(A, A^k) e_k^2 = sign(A^k, k) e_A^2, their signs
sign(A, A^k) = e_A^2 e_k^2 sign(A^k, k) over all k form row A of the table.
Above that the algebra is split into the low n_l = n - n//2 basis vectors and
the high n - n_l ones, and a blade A into its high and low masks (A_h, A_l).
Reordering e_A e_B moves the factors of A_h past those of B_l and never the
factors of A_l past those of B_h, and the repeated factors are repeated in
each half, so

    sign(A, B) = sign_low(A_l, B_l) * sign_high(A_h, B_h) * (-1)^(|A_h| |B_l|),

with sign_low and sign_high the dense tables of the two sub-algebras (at most
64 x 64).  The product is then a sum over the high parts A_h present in the
left operand, each one matmul of two gathers.  Every sign is +-1, so both
gathers are signed: the rows of the right operand that A_h meets come from
[b; -b], and the low-algebra left-multiplication block of A_h from
[a_{A_h}, -a_{A_h}], each through a small index table.  A graded product
gathers only the rows of b that its kept pairs meet, and 0 for the dropped
entries of a low block.

For file formats and display, blades are ordered grade-first and then
lexicographically by factor indices ("1, e1, e2, e3, e12, e13, e23, e123" for
n = 3); internally everything stays in bitmask order.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DIMENSION = 12
#: Dense 2^n x 2^n pair tables are precomputed up to this dimension; larger
#: algebras multiply through the dense tables of a low and a high sub-algebra.
TABLE_MAX_DIMENSION = 8


class SignatureMismatchError(ValueError):
    """Raised when an operation combines multivectors of different algebras."""


@dataclass(frozen=True, eq=False)
class Signature:
    """Algebra descriptor: p basis vectors squaring to +1, q squaring to -1.

    The counts must be integers (numpy integers are stored as ``int``; bools
    and floats are rejected).  Equality and hashing go by (p, q), written out
    because signatures are compared and looked up on every product.
    """

    p: int
    q: int

    def __post_init__(self):
        for name in ("p", "q"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"signature counts must be integers, got {name}={value!r}") from None
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be non-negative, got ({self.p},{self.q})")
        n = self.p + self.q
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"total dimension p+q must be in [1, {MAX_DIMENSION}], got {n}")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        """Number of basis blades, 2^(p+q)."""
        return 1 << self.n

    def metric(self, k: int) -> int:
        """Square of basis vector e_k (1-based index)."""
        if not 1 <= k <= self.n:
            raise ValueError(f"basis vector index must be in [1, {self.n}], got {k}")
        return 1 if k <= self.p else -1

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Signature):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


# ---------------------------------------------------------------------------
# basis blade helpers


def blade_grade(bits: int) -> int:
    """Number of basis vector factors in the blade."""
    return bin(bits).count("1")


def blade_factors(bits: int) -> tuple[int, ...]:
    """1-based basis vector indices of the blade, ascending."""
    return tuple(k + 1 for k in range(bits.bit_length()) if bits >> k & 1)


def blade_label(bits: int) -> str:
    """Display name: '1' for the scalar blade, else 'e' + factor indices."""
    if bits == 0:
        return "1"
    factors = blade_factors(bits)
    if factors[-1] <= 9:
        return "e" + "".join(str(k) for k in factors)
    return "e" + "_".join(str(k) for k in factors)


def _reorder_sign(a: int, b: int) -> int:
    # Parity of the transpositions that merge the ascending factor lists of
    # a and b into one ascending list (repeated factors end up adjacent).
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


def blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Product of basis blades: returns (sign, result_bits) with e_a e_b = sign * e_result.

    Total on valid masks; the result mask is always a XOR b and the sign is
    the reordering parity times the metric signs of the repeated factors.
    """
    dim = sig.dim
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"blade masks must be below {dim} for {sig}, got {a}, {b}")
    sign = _reorder_sign(a, b)
    common = a & b
    while common:
        k = (common & -common).bit_length()  # 1-based index of lowest repeated factor
        sign *= sig.metric(k)
        common &= common - 1
    return sign, a ^ b


def _lexical_order(n: int) -> np.ndarray:
    # Bitmasks sorted by (grade, factor tuple); the file/display order.  Two
    # factor tuples of one grade first differ at a factor that only the
    # earlier tuple holds, and it is the highest differing bit once e_1 is
    # read as the top bit, so that tuple has the larger bit-reversed mask.
    masks = np.arange(1 << n, dtype=np.intp)
    flipped = np.zeros_like(masks)
    for k in range(n):
        flipped |= ((masks >> k) & 1) << (n - 1 - k)
    return np.lexsort((-flipped, np.bitwise_count(masks)))


#: Cost model of ProductTable.multiply on the dense tables, in entries of the
#: full 2^n x 2^n gather a[xor] * signs (2.4 ns each on a 2-vCPU x86 VM with
#: numpy 2.4).  A left operand with nnz nonzeros gathers instead nnz rows of
#: 2^n entries from b and from the xor and sign tables, at 2 to 2.5 dense
#: entries apiece, plus 8-13 us per call for its extra numpy calls, about 4^6
#: entries.  So the sparse form runs below 48 nonzeros at n = 7 and 120 at
#: n = 8, and never at n <= 6.  Each ProductTable evaluates it once.
_SPARSE_ENTRY_COST = 2
_SPARSE_CALL_COST = 4096


def _signed_index(index: np.ndarray, signs: np.ndarray, size: int) -> np.ndarray:
    # Position of signs * x[index] in [x, -x, 0] for x of length size and
    # signs in {-1, 0, +1}: one gather in place of a gather and a multiply.
    return np.where(signs > 0, index, np.where(signs < 0, index + size, 2 * size))


# ---------------------------------------------------------------------------
# product machinery


class ProductTable:
    """Precomputed multiplication structure for one signature.

    Holds the per-blade sign arrays used by the involutions and, for
    dimensions up to ``TABLE_MAX_DIMENSION``, the dense pair tables
    ``xor[k, j] = k ^ j`` and ``sign_left[k, j] = sign(k ^ j, j)`` that make
    the geometric product a single gather-and-matmul, or nnz(a) row gathers
    for a sparse left operand a.  Larger algebras keep no pair tables
    (``xor`` and ``sign_left`` are None): they split every blade into its low
    and high basis vectors, as the module docstring derives, and gather each
    signed entry from an operand and its negation through index tables built
    from the dense tables of those two sub-algebras on first use.  Instances
    are immutable after construction, apart from those lazily filled tables,
    and cached per signature.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        n = sig.n
        dim = sig.dim
        self.dim = dim
        idx = np.arange(dim, dtype=np.intp)

        self.grades = np.bitwise_count(idx.astype(np.uint64)).astype(np.intp)
        # Product of e_k^2 over the factors of each blade.
        mprod = np.ones(dim)
        for k in range(n):
            mprod[(idx >> k) & 1 == 1] *= sig.metric(k + 1)
        self.metric_prod = mprod
        self.reverse_signs = np.where(self.grades * (self.grades - 1) // 2 % 2 == 0, 1.0, -1.0)
        self.involution_signs = self.metric_prod * self.reverse_signs
        # Sign of e_A e_A; the scalar product reduces to a weighted dot with it.
        # It is the involution sign, since e_A (e_A)~ = 1.
        self.square_signs = self.involution_signs

        self.lex_to_bits = _lexical_order(n)

        if n <= TABLE_MAX_DIMENSION:
            self.xor = idx[:, None] ^ idx[None, :]
            bits = idx.astype(np.uint64)
            # sign_left[k, j] = sign(e_{k^j}, e_j), so (A B)[k] = sum_j A[k^j] sign_left[k, j] B[j];
            # gathering the broadcast sign(i, j) builds faster than pairing over xor itself.
            self.sign_left = np.take_along_axis(self._pair_signs(bits[:, None], bits[None, :]), self.xor, axis=0)
            # Most nonzeros for which multiply takes the sparse form of a left
            # operand: the largest nnz below the crossover of the cost model.
            self._sparse_max = max(0, (dim * dim - _SPARSE_CALL_COST - 1) // (_SPARSE_ENTRY_COST * dim))
        else:
            self.xor = None
            self.sign_left = None
            # Low factor: e_1 .. e_{n_low}; high factor: the rest.  Blade i is
            # row i >> n_low, column i & (2^n_low - 1) of a (high, low) array.
            # Their tables are looked up on first use.
            n_low = n - n // 2
            p_low = min(sig.p, n_low)
            p_high = sig.p - p_low
            self._factor_sigs = (Signature(p_low, n_low - p_low), Signature(p_high, n // 2 - p_high))
        # Sign or index tables of each product kind, filled by _signs on first
        # use, and the split path's left_matrix tables under "left_matrix".
        self._sign_tables: dict = {} if self.sign_left is None else {None: self.sign_left}

    def _pair_signs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # sign(A, B) for broadcastable uint64 arrays of blade masks.
        swaps = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
        for shift in range(1, self.sig.n):
            swaps += np.bitwise_count((a >> shift) & b)
        reorder = np.where(swaps & 1 == 0, 1.0, -1.0)
        return reorder * self.metric_prod[(a & b).astype(np.intp)]

    def _signs(self, kind: str | None) -> np.ndarray | tuple[np.ndarray, list]:
        # Tables over the blade pairs kept by ``kind`` (None keeps all).
        # Dense: sign_left with the dropped pairs set to zero.  Split: a pair
        # is kept exactly when its low and its high halves are, and the
        # tables index signed copies of the operands (see _signed_index):
        #   low_index[|A_h| % 2, j, k] picks sign_low(k ^ j, j) (-1)^(|A_h| |j|) a_i[k ^ j]
        #     from [a_i, -a_i, 0], the transposed low block of row A_h = i;
        #   rows[i] = (cols, gather): the output rows C_h that row i keeps and
        #     the rows of [b; -b] holding sign_high(i, i ^ C_h) b[i ^ C_h].
        tables = self._sign_tables.get(kind)
        if tables is None:
            if self.sign_left is not None:
                i = self.xor  # left blade of the (k, j) entry is k^j
                j = np.arange(self.dim, dtype=np.intp)[None, :]
                tables = np.where(_PAIR_CONDITIONS[kind](i, j), self.sign_left, 0.0)
            else:
                low, high = self._factors()
                even = low._signs(kind).T
                odd = even * np.where(low.grades % 2 == 0, 1.0, -1.0)[:, None]
                low_index = np.stack([_signed_index(low.xor, s, low.dim) for s in (even, odd)])
                high_signs = np.take_along_axis(high._signs(kind), high.xor, axis=1).T
                gather = _signed_index(high.xor, high_signs, high.dim)
                rows = []
                for i, kept in enumerate(high_signs != 0):
                    cols = slice(None) if kept.all() else np.flatnonzero(kept)
                    rows.append((cols, gather[i, cols]))
                tables = (low_index, rows)
            self._sign_tables[kind] = tables
        return tables

    def multiply(self, a: np.ndarray, b: np.ndarray, kind: str | None = None) -> np.ndarray:
        """Product on raw coefficient arrays, restricted to blade pairs selected by ``kind``.

        None keeps every pair: the geometric product.  'outer' keeps disjoint
        pairs (grades add), 'left' pairs with the left factors contained in
        the right (grade s-r), 'right' the mirror image.  These restrictions
        reproduce the grade-projected products extended bilinearly over
        homogeneous parts.

        Up to n = 8 a finite left operand with few nonzeros (see
        ``_SPARSE_CALL_COST``) costs nnz 2^n gathered entries instead of 4^n;
        one holding an inf or NaN takes the full gather like a dense one.
        """
        if self.sign_left is not None:
            if self._sparse_max and np.count_nonzero(a) <= self._sparse_max:
                # out[k] = sum over nonzero a_A of a_A sign(A, A ^ k) b[A ^ k], and
                # sign(A, A ^ k) = e_A^2 e_k^2 sign(A ^ k, k): row A of the table
                # of _ROW_KIND[kind], read contiguously.
                nz = a.nonzero()[0]
                squares = self.square_signs
                coeffs = (a * squares)[nz]
                if np.isfinite(coeffs).all():
                    rows = self._signs(_ROW_KIND[kind])[nz]
                    return coeffs @ (rows * squares * b[self.xor[nz]])
            return (a[self.xor] * self._signs(kind)) @ b
        low, high = self._factors()
        low_index, rows = self._signs(kind)
        a = a.reshape(high.dim, low.dim)
        signed_a = np.concatenate([a, -a, np.zeros((high.dim, 1))], axis=1)
        b = b.reshape(high.dim, low.dim)
        signed_b = np.concatenate([b, -b])
        out = np.zeros((high.dim, low.dim))
        for i in np.flatnonzero(a.any(axis=1)):
            # Row A_h = i of a meets row B_h = i ^ C_h of b in output row C_h,
            # through the transposed low left-multiplication block of row i.
            cols, gather = rows[i]
            out[cols] += signed_b[gather] @ signed_a[i][low_index[high.grades[i] & 1]]
        return out.reshape(-1)

    def left_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by a: (a b) = left_matrix(a) @ b."""
        if self.sign_left is not None:
            return a[self.xor] * self.sign_left
        low, high = self._factors()
        block_index, out_index = self._left_index()
        a = np.asarray(a, dtype=float).reshape(high.dim, low.dim)  # float, as on the dense path
        blocks = np.concatenate([a, -a], axis=1).take(block_index)
        signed = np.concatenate([blocks, -blocks]).reshape(-1, low.dim)
        return signed.take(out_index, axis=0).reshape(self.dim, self.dim)

    def _left_index(self) -> tuple[np.ndarray, np.ndarray]:
        # Index tables of the split left_matrix.  blocks[A_h, k, j] picks the
        # low block entry (k, j) of row A_h from [a, -a] (flattened, a as a
        # (high, low) array).  Rows and columns of the matrix split as
        # (high, low), and block (C_h, B_h) is sign_high(A_h, B_h) times the
        # low block of A_h = C_h ^ B_h, so out[C_h, k, B_h] picks its row k
        # from [blocks; -blocks] (rows indexed by signed A_h and k).
        tables = self._sign_tables.get("left_matrix")
        if tables is None:
            low, high = self._factors()
            low_index, _ = self._signs(None)
            row_starts = 2 * low.dim * np.arange(high.dim)[:, None, None]
            blocks = row_starts + low_index[high.grades & 1].transpose(0, 2, 1)
            signed_rows = _signed_index(high.xor, high.sign_left, high.dim)
            out = signed_rows[:, None, :] * low.dim + np.arange(low.dim)[None, :, None]
            tables = (blocks, out)
            self._sign_tables["left_matrix"] = tables
        return tables

    def _factors(self) -> tuple[ProductTable, ProductTable]:
        return product_table(self._factor_sigs[0]), product_table(self._factor_sigs[1])


@lru_cache(maxsize=None)
def product_table(sig: Signature) -> ProductTable:
    """Cached ProductTable for the signature."""
    return ProductTable(sig)


class IdealFrame:
    """Orthonormal bases of the left ideals Cl f_e of commuting idempotents f_e.

    ``blades`` are masks A_1..A_k of basis blades that square to +1, commute
    pairwise and are independent under XOR.  Their XOR-span S has K = 2^k
    masks S_t, where bit i of t says whether A_i is a factor, and the product
    of those factors in ascending i is sigma_t e_{S_t} (sigma_t = +-1).  With
    eps_i = -1 exactly where bit i of e is set, the idempotents

        f_e = prod_i (1 + eps_i e_{A_i}) / 2 = K^-1 sum_t chi_e(t) e_{S_t},
        chi_e(t) = sigma_t chars[t, e],  chars[t, e] = (-1)^|t & e|,

    are orthogonal and sum to 1, so the algebra is the direct sum of the K
    left ideals Cl f_e, and every left multiplication maps each of them into
    itself.  As e_{S_t} f_e = chi_e(t) f_e, Cl f_e is spanned by the
    r = 2^n / K vectors e_{R_j} f_e over the coset representatives R_j of S.
    Those have disjoint supports R_j ^ S, and scaled to unit length they are
    the orthonormal columns of U_e, stored as index and sign arrays:

        U_e[support[j, t], j] = signs[j, t] * chars[t, e] / sqrt(K),
        signs[j, t] = sign(R_j, S_t) sigma_t.

    ``classes`` holds one ideal index e per class of ideals whose blocks are
    similar.  Conjugation by a basis vector e_j flips eps_i exactly where e_j
    anticommutes with e_{A_i}, so e_j f_e e_j^-1 = f_{e ^ pat_j}, and right
    multiplication by e_j^-1, which commutes with every left multiplication,
    maps Cl f_e onto Cl f_{e ^ pat_j}.  Ideals in one coset of the XOR-span
    of the pat_j therefore have similar blocks of every left multiplication,
    and ``classes`` is the smallest index of each coset: one class when
    p - q != 1 (mod 4), where the algebra is simple, and two otherwise.
    """

    def __init__(self, table: ProductTable):
        dim = table.dim
        span = np.zeros(1, dtype=np.uint64)
        sigma = np.ones(1)
        blades = []
        for a in range(1, dim):
            if table.square_signs[a] != 1.0 or np.any(span == a):
                continue
            # e_A e_B = (-1)^(|A| |B| - |A & B|) e_B e_A
            if any((blade_grade(a) * blade_grade(b) - blade_grade(a & b)) % 2 for b in blades):
                continue
            blades.append(a)
            mask = np.uint64(a)
            sigma = np.concatenate([sigma, sigma * table._pair_signs(span, mask)])
            span = np.concatenate([span, span ^ mask])
        masks = np.arange(dim, dtype=np.uint64)
        reps = masks[(masks[:, None] ^ span[None, :]).min(axis=1) == masks]
        t = np.arange(len(span), dtype=np.uint64)
        # Bit i of pat_j is set when e_j anticommutes with e_{A_i}.
        flips = {0}
        for j in range(table.sig.n):
            pat = sum(1 << i for i, a in enumerate(blades) if (blade_grade(a) - blade_grade(a & 1 << j)) % 2)
            flips |= {g ^ pat for g in flips}
        self.classes = tuple(e for e in range(len(span)) if min(e ^ g for g in flips) == e)
        self.blades = tuple(blades)
        self.support = (reps[:, None] ^ span[None, :]).astype(np.intp)
        self.signs = table._pair_signs(reps[:, None], span[None, :]) * sigma
        self.chars = np.where(np.bitwise_count(t[:, None] & t[None, :]) % 2 == 0, 1.0, -1.0)

    def blocks(self, mat: np.ndarray) -> np.ndarray:
        """The K blocks U_e^T mat U_e, stacked as a (K, r, r) array."""
        r, k = self.support.shape
        idx = self.support.ravel()
        d = self.signs.ravel()
        signed = (mat[idx[:, None], idx[None, :]] * d[:, None] * d[None, :]).reshape(r, k, r, k)
        return np.einsum("isje,se->eij", signed @ self.chars, self.chars) / k


@lru_cache(maxsize=None)
def ideal_frame(sig: Signature) -> IdealFrame:
    """Cached IdealFrame for the signature, from blades picked greedily by ascending mask."""
    return IdealFrame(product_table(sig))


_PAIR_CONDITIONS = {
    "outer": lambda i, j: (i & j) == 0,
    "left": lambda i, j: (i & ~j) == 0,
    "right": lambda i, j: (j & ~i) == 0,
}
#: The kind whose condition on the pair (A ^ k, k) is ``kind``'s on (A, A ^ k):
#: A disjoint from A ^ k means A in k, so A ^ k in k; A in A ^ k means A and k
#: disjoint, so k in A ^ k; A ^ k in A means k in A, so A ^ k and k disjoint.
_ROW_KIND = {None: None, "outer": "left", "left": "right", "right": "outer"}


# ---------------------------------------------------------------------------
# multivectors


class Multivector:
    """Element of Cl(p,q): 2^n real coefficients over the blade basis.

    Values are immutable: the constructor copies ``coeffs`` into a read-only
    array of its own, and operations return new instances without mutating
    their arguments, so multivectors can be shared freely.  Both the
    constructor and the internal no-copy wrapper ``_own`` fill the five slots
    through one set-up, ``_set_slots``, so a new slot is added in one place.

    Each instance also fills up to three private slots on first use: its
    principal involution x~ and its energy term x~ x, the two per-sample
    quantities a filter window reads on every step it spends in the window,
    and, for n <= ``TABLE_MAX_DIMENSION``, its 2^n x 2^n left-multiplication
    matrix, which the filter fills for each weight and error direction so
    that one matrix serves every tap and both net-input passes of a row.
    ``*`` never fills it, and above n = 8 it stays empty (a matrix would take
    up to 128 MB).  Because the coefficients never change, a result computed
    once stays valid for the life of the instance; all three are read-only
    themselves, so every caller gets the same value and none can alter it.
    """

    __slots__ = ("sig", "coeffs", "_inv", "_xx", "_left")

    def __init__(self, sig: Signature, coeffs):
        arr = np.array(np.ravel(coeffs), dtype=float)
        if arr.shape != (sig.dim,):
            raise ValueError(f"{sig} needs {sig.dim} coefficients, got {arr.shape[0]}")
        self._set_slots(sig, arr)

    @classmethod
    def _own(cls, sig: Signature, arr: np.ndarray) -> "Multivector":
        # Takes over a freshly computed float array of shape (sig.dim,), or a
        # row of one, that no one else holds: wraps it without a copy.
        m = object.__new__(cls)
        m._set_slots(sig, arr)
        return m

    def _set_slots(self, sig: Signature, arr: np.ndarray) -> None:
        # The one place that fills the slots, for both constructors: marks arr
        # read-only, takes it as the coefficients and leaves the caches empty.
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_xx", None)
        object.__setattr__(self, "_left", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls._own(sig, np.zeros(sig.dim))

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        c = np.zeros(sig.dim)
        c[0] = value
        return cls._own(sig, c)

    @classmethod
    def basis_blade(cls, sig: Signature, bits: int, coeff: float = 1.0) -> "Multivector":
        if not 0 <= bits < sig.dim:
            raise ValueError(f"blade mask {bits} out of range for {sig}")
        c = np.zeros(sig.dim)
        c[bits] = coeff
        return cls._own(sig, c)

    @classmethod
    def from_vector(cls, sig: Signature, components) -> "Multivector":
        """Grade-1 element from n vector components."""
        comp = np.asarray(components, dtype=float)
        if comp.shape != (sig.n,):
            raise ValueError(f"{sig} vectors have {sig.n} components, got {comp.shape}")
        c = np.zeros(sig.dim)
        c[1 << np.arange(sig.n)] = comp
        return cls._own(sig, c)

    # -- basics

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.coeffs).all())

    def _check_sig(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"cannot combine {self.sig} with {other.sig}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        return Multivector._own(self.sig, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        return Multivector._own(self.sig, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector._own(self.sig, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_sig(other)
            table = product_table(self.sig)
            return Multivector._own(self.sig, table.multiply(self.coeffs, other.coeffs))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector._own(self.sig, self.coeffs * float(other))
        return NotImplemented

    # Scalar factors commute, and IEEE products give the same bits in either order.
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector._own(self.sig, self.coeffs / float(other))
        return NotImplemented

    __hash__ = None  # value equality over float arrays; not hashable

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and bool(np.array_equal(self.coeffs, other.coeffs))

    # -- algebra operations

    def involution(self) -> "Multivector":
        """Principal involution: e_k -> e_k^2 e_k plus factor reversal.

        Generalizes complex/quaternion conjugation; e_A (e_A)~ = 1 for every
        basis blade.  Computed on the first call; later calls return the same
        instance.
        """
        inv = self._inv
        if inv is None:
            inv = Multivector._own(self.sig, self.coeffs * product_table(self.sig).involution_signs)
            object.__setattr__(self, "_inv", inv)
        return inv

    def _energy(self) -> np.ndarray:
        # Read-only coefficients of x~ x, computed on the first call.
        xx = self._xx
        if xx is None:
            xx = product_table(self.sig).multiply(self.involution().coeffs, self.coeffs)
            xx.setflags(write=False)
            object.__setattr__(self, "_xx", xx)
        return xx

    def _left_mul(self, x: np.ndarray) -> np.ndarray:
        # self b for one coefficient array b of shape (dim,), or for each row
        # of a (k, dim) stack.  Up to n = 8 through the left matrix, built on
        # the first call and kept; above, through ProductTable.multiply.
        mat = self._left
        if mat is None:
            table = product_table(self.sig)
            if table.sign_left is None:
                rows = [table.multiply(self.coeffs, row) for row in x.reshape(-1, table.dim)]
                return np.stack(rows).reshape(x.shape)
            mat = table.left_matrix(self.coeffs)
            mat.setflags(write=False)
            object.__setattr__(self, "_left", mat)
        # One gemv per right operand, as ProductTable.multiply does, on the
        # C-contiguous matrix: a single gemm over the stack (x @ mat.T) or a
        # matrix with other strides runs another BLAS kernel and changes the
        # last bits of the result.
        return np.matmul(mat, x[..., None])[..., 0]

    def reverse(self) -> "Multivector":
        """Factor-order reversal without metric signs ((-1)^(r(r-1)/2) per grade)."""
        table = product_table(self.sig)
        return Multivector._own(self.sig, self.coeffs * table.reverse_signs)

    def grade(self, k: int) -> "Multivector":
        """Grade-k part; the parts over k = 0..n sum back to the element."""
        if not 0 <= k <= self.sig.n:
            raise ValueError(f"grade must be in [0, {self.sig.n}], got {k}")
        table = product_table(self.sig)
        return Multivector._own(self.sig, np.where(table.grades == k, self.coeffs, 0.0))

    def grades(self) -> tuple[int, ...]:
        """Grades with a nonzero coefficient, ascending."""
        table = product_table(self.sig)
        present = np.unique(table.grades[self.coeffs != 0.0])
        return tuple(int(g) for g in present)

    def scalar_product(self, other: "Multivector") -> float:
        """Scalar part of the geometric product; symmetric in its arguments."""
        self._check_sig(other)
        table = product_table(self.sig)
        return float(np.dot(self.coeffs * table.square_signs, other.coeffs))

    def component(self, bits: int) -> float:
        """Coefficient of blade e_bits (equals the scalar product with (e_bits)~)."""
        if not 0 <= bits < self.sig.dim:
            raise ValueError(f"blade mask {bits} out of range for {self.sig}")
        return float(self.coeffs[bits])

    def modulus(self) -> float:
        """Euclidean norm of the coefficient vector, sqrt(M * M~)."""
        c = self.coeffs
        return math.sqrt(c @ c)

    def signed_magnitude_sq(self) -> float:
        """M * M without the involution: sum of M_A^2 e_A^2, possibly negative.

        For Cl(1,0) restricted to {1, e1} this is the hyperbolic-number norm
        square.
        """
        return self.scalar_product(self)

    def __repr__(self):
        terms = []
        table = product_table(self.sig)
        for bits in table.lex_to_bits:
            c = self.coeffs[bits]
            if c != 0.0:
                label = blade_label(int(bits))
                terms.append(f"{c:g}" if label == "1" else f"{c:g}*{label}")
        body = " + ".join(terms) if terms else "0"
        return f"<{self.sig} {body}>"


# ---------------------------------------------------------------------------
# text form: "p,q:[c0, c1, ...]" with coefficients in lexical blade order

_TEXT_RE = re.compile(r"^\s*(\d+)\s*,\s*(\d+)\s*:\s*(\[.*\])\s*$", re.DOTALL)


def _encode_coeffs(sig: Signature, coeffs: np.ndarray) -> str:
    # "[c0, c1, ...]": lexical blade order, shortest round-tripping floats.
    table = product_table(sig)
    return "[" + ", ".join(repr(float(c)) for c in coeffs[table.lex_to_bits]) + "]"


def _decode_coeffs(sig: Signature, text: str) -> np.ndarray:
    # Inverse of _encode_coeffs: 2^n finite floats, none empty, in bitmask order.
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a bracketed coefficient list: {text!r}")
    fields = text[1:-1].split(",")
    if not all(f.strip() for f in fields):
        raise ValueError(f"empty field in coefficient list: {text!r}")
    if len(fields) != sig.dim:
        raise ValueError(f"{sig} needs {sig.dim} coefficients, got {len(fields)}")
    coeffs = np.empty(sig.dim)
    coeffs[product_table(sig).lex_to_bits] = [float(f) for f in fields]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    return coeffs


def format_multivector(m: Multivector) -> str:
    """Round-trippable text form with lexical blade order and shortest floats."""
    return f"{m.sig.p},{m.sig.q}:{_encode_coeffs(m.sig, m.coeffs)}"


def parse_multivector(text: str) -> Multivector:
    match = _TEXT_RE.match(text)
    if not match:
        raise ValueError(f"not a multivector literal: {text!r}")
    sig = Signature(int(match.group(1)), int(match.group(2)))
    return Multivector._own(sig, _decode_coeffs(sig, match.group(3)))
