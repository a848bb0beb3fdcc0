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

Up to n = 6 the signs of all blade pairs sit in one dense 2^n x 2^n table,
and a product gathers all 4^n pairs from it.  Above that the algebra is
split into the low n_l = n - n//2 basis vectors and the high n - n_l ones,
and a blade A into its high and low masks (A_h, A_l).
Reordering e_A e_B moves the factors of A_h past those of B_l and never the
factors of A_l past those of B_h, and the repeated factors are repeated in
each half, so

    sign(A, B) = sign_low(A_l, B_l) * sign_high(A_h, B_h) * (-1)^(|A_h| |B_l|),

with sign_low and sign_high the dense tables of the two sub-algebras (at most
64 x 64).  The product is then a sum over the high rows A_h that hold a
nonzero of the left operand (its live rows): row A_h gives the terms of the
output rows C_h = A_h ^ B_h it keeps as one matmul of two gathers.  Every
sign is +-1, so both gathers are signed: the rows of the right operand that
A_h meets come from [b; -b], and the low-algebra left-multiplication block of
A_h from [a_{A_h}, -a_{A_h}], each through a small index table.  A graded
product gathers only the rows of b that its kept pairs meet, and 0 for the
dropped entries of a low block.  Each output row adds its terms in ascending
A_h, starting from +0.0, on one of two paths.  When every high row is live
and the (rows, high, low) array of all the terms fits 2^15 entries, which
holds for such operands up to n = 10 and never at n = 11 or 12, the rows go
in groups of one kept-row count and parity: per group one signed gather of
b's rows, one of the low blocks and one batched matmul, then one reduction
over the term array.  Every other operand (a vector, a blade, one with a
zero high row, and all at n = 11 and 12) takes a loop over its live rows
with one gather-matmul each.  Both paths read one set of index tables
per kind of product, built on its first use: the rows of a group are
stacked once, and each row's gather is a view into its group's stack.  The
batched matmul runs each row's gemm on the loop's matrices, and the
reduction makes the loop's additions in the loop's order, so the two paths
give the same bits.

A dense geometric product above n = 6 runs instead on the matrix form of
the algebra: Cl(p,q) is a matrix algebra over R, C or H, or a sum of two
such algebras (Lounesto, Clifford Algebras and Spinors, 2001).  `IdealFrame`
picks commuting unit-square blades A_1..A_k whose XOR-span S has K = 2^k masks
S_t, and splits the algebra into K left ideals Cl f_e of r = 2^n / K
dimensions, each kept by every left multiplication L(a); the block M_e(a) =
U_e^T L(a) U_e is r x r.  Two facts make each entry of a block one signed
coefficient of a K-point Walsh-Hadamard transform of a.  First, sign(A, B) =
(-1)^|flips[A] & B| is bilinear over GF(2), as flips is linear.  Second, the
smallest masks R_i of the cosets of S are the masks with no bit at a pivot of
S, a subspace, so D = R_i ^ R_j is again one of them.  With the transform

    W[D, u] = sum_t sigma_t chars[t, u] a[D ^ S_t]

over the coset of D,

    M_e(a)[i, j] = sign(D, R_j) W[D, e ^ g(R_j) ^ h(D)],

where bit l of g(R) says whether e_R anticommutes with e_{A_l}, and bit l
of h(D) whether sign(D, A_l) = -1.  Since L(ab) = L(a) L(b), M_e(ab) = M_e(a)
M_e(b).  g is linear over GF(2) and zero on S, so its values are a subspace,
the sign patterns by which conjugation with a blade moves the ideals, and
`classes` holds one ideal e per coset of it, so the columns e ^ g(R_j) cover
every u: K columns of the class blocks, one per value e ^ g(R_j), hold each
of the 2^n entries W[D, u] once.  `IdealFrame` computes g and h once and
builds the transform and its gather tables; the block product reads them,
and so does `IdealFrame.blocks`, which gives the class blocks of a stack of
operands (the teacher's companion in `experiments`).  The product is then
one gemm for the transforms of a and b, one signed gather for a's blocks and
one for those K columns of b's, one product of r x r and r x K/C matrices
per class (C classes), and one signed gather and the inverse transform back
(chars chars = K I): about 2^n (3K + r) multiply-adds in place of 4^n, with
r between K/2 and 4K.  It runs only when neither
operand holds a zero (or -0.0) coefficient, an inf or a NaN.  Then 2^n blade
pairs reach every blade of the result, so the blocks' roundoff cannot land
where the split sum has no term.  An operand with a zero coefficient (a
vector, a blade, an even or a graded element) keeps the split kernel, which
sums only the pairs that exist, and its bits, as does one with an inf or NaN,
which the transform would spread to every coefficient; so do graded products
and `left_matrix`.

For file formats and display, blades are ordered grade-first and then
lexicographically by factor indices ("1, e1, e2, e3, e12, e13, e23, e123" for
n = 3); internally everything stays in bitmask order.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

MAX_DIMENSION = 12
#: Dense 2^n x 2^n pair tables are precomputed up to this dimension; larger
#: algebras multiply through the dense tables of a low and a high sub-algebra,
#: the larger of which has this dimension at n = MAX_DIMENSION.
TABLE_MAX_DIMENSION = MAX_DIMENSION - MAX_DIMENSION // 2


class SignatureMismatchError(ValueError):
    """Raised when an operation combines multivectors of different algebras."""


@dataclass(frozen=True)
class Signature:
    """Algebra descriptor: p basis vectors squaring to +1, q squaring to -1.

    The counts must be integers (numpy integers are stored as ``int``; bools
    and floats are rejected).  Equality and hashing go by (p, q); equality is
    written out, with an identity shortcut, because signatures are compared
    on every product.
    """

    p: int
    q: int

    def __post_init__(self):
        _int_fields(self, ("p", "q"), "signature counts")
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
        """Square of basis vector e_k (1-based index, an int or a numpy integer)."""
        k = _index(k, "basis vector indices")
        if not 1 <= k <= self.n:
            raise ValueError(f"basis vector index must be in [1, {self.n}], got {k}")
        return 1 if k <= self.p else -1

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Signature):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def _index(value, what: str, label: str = "") -> int:
    # value as an int: ints and numpy integers pass (through operator.index),
    # bools, floats and the rest raise ValueError.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be integers, got {label}{value!r}")


def _int_fields(obj, names: tuple[str, ...], what: str) -> None:
    # Stores each named field of obj as an int (see _index).
    for name in names:
        object.__setattr__(obj, name, _index(getattr(obj, name), what, f"{name}="))


def _real_dtype(arr: np.ndarray, what: str) -> np.ndarray:
    # arr if it holds integers or floats.  Every other dtype raises
    # ValueError, where a conversion to float would drop an imaginary part
    # with only a ComplexWarning, read a bool as 0 or 1, parse a numeric
    # string, or turn None in an object array into NaN.
    if arr.dtype.kind in "iuf":
        return arr
    names = {"b": "bool", "c": "complex", "O": "object", "S": "bytes", "U": "string"}
    kind = names.get(arr.dtype.kind, arr.dtype.name)
    raise ValueError(f"{what} must be real, got {kind} values")


def _real_array(values, what: str) -> np.ndarray:
    # values as a float array, if they are integers or floats (see _real_dtype).
    return np.asarray(_real_dtype(np.asarray(values), what), dtype=float)


def _blade_mask(bits, sig: Signature) -> int:
    # bits as an int blade mask of sig: ValueError for a non-integer (see
    # _index) and for a mask out of range.
    bits = _index(bits, "blade masks")
    if not 0 <= bits < sig.dim:
        raise ValueError(f"blade mask {bits} out of range for {sig}")
    return bits


def _real(value, what: str, label: str = ""):
    # value if it is a real number: ints, floats and their numpy types pass,
    # inf and NaN included; bools, strings, complex numbers and the rest
    # raise ValueError.
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be real numbers, got {label}{value!r}")


def _real_fields(obj, names: tuple[str, ...], what: str, optional: tuple[str, ...] = ()) -> None:
    # Checks that each named field of obj is a real number (see _real),
    # stored as given; None passes in a field named in ``optional``.
    for name in names:
        value = getattr(obj, name)
        if not (value is None and name in optional):
            _real(value, what, f"{name}=")


# ---------------------------------------------------------------------------
# basis blade helpers


def blade_grade(bits: int) -> int:
    """Number of basis vector factors in the blade.

    The blade helpers take a non-negative int or numpy integer mask of any
    algebra; bools, floats and negative masks raise ValueError.
    """
    return len(blade_factors(bits))


def blade_factors(bits: int) -> tuple[int, ...]:
    """1-based basis vector indices of the blade, ascending."""
    bits = _index(bits, "blade masks")
    if bits < 0:
        raise ValueError(f"blade masks must be non-negative, got {bits}")
    return tuple(k + 1 for k in range(bits.bit_length()) if bits >> k & 1)


def blade_label(bits: int) -> str:
    """Display name: '1' for the scalar blade, else 'e' + factor indices."""
    factors = blade_factors(bits)
    if not factors:
        return "1"
    if factors[-1] <= 9:
        return "e" + "".join(str(k) for k in factors)
    return "e" + "_".join(str(k) for k in factors)


def blade_product(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Product of basis blades: returns (sign, result_bits) with e_a e_b = sign * e_result.

    Total on valid masks; the result mask is always a XOR b and the sign is
    the reordering parity times the metric signs of the repeated factors.
    Masks must be ints or numpy integers below sig.dim: anything else,
    bools and floats included, raises ValueError.
    """
    a, b = _blade_mask(a, sig), _blade_mask(b, sig)
    # The sign is one parity: a flip for each repeated factor e_k with k > p,
    # which squares to -1, and one for each transposition that merges the
    # ascending factor lists of a and b into one (repeated factors end up
    # adjacent).
    flips = ((a & b) >> sig.p).bit_count()
    rest = a >> 1
    while rest:
        flips += (rest & b).bit_count()
        rest >>= 1
    return -1 if flips & 1 else 1, a ^ b


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
    the geometric product a single gather-and-matmul.  Larger algebras keep
    no pair tables (``xor`` and ``sign_left`` are None): they split every
    blade into its low and high basis vectors, as the module docstring
    derives, and gather each signed entry from an operand and its negation
    through index tables built from the dense tables of those two
    sub-algebras, once per kind of product on its first use; the batched
    and the looped split paths read the same tables.  Their geometric
    products of operands with no zero coefficient run as block products on
    the transform and gather tables of `ideal_frame`, built with the frame
    on the first such product, never here.  Instances are
    immutable after construction, apart from those lazily filled tables, and
    cached per signature.

    Every sign table comes from one routine at every n, ``_pair_signs``:
    sign(A, B) = (-1)^|flips[A] & B| with one parity mask per blade.  The
    private ``_support_product`` multiplies two operands given by their
    supports (masks and values), pairing only those blades, with the pairs
    that a kind or a result grade keeps, and adds each pair's term in pair
    order through ``np.bincount``; `geometry`'s subspace operations use it.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        n = sig.n
        dim = sig.dim
        self.dim = dim
        idx = np.arange(dim, dtype=np.intp)

        self.grades = np.bitwise_count(idx)
        # The parity masks of _pair_signs: bit k of flips[A] is set when
        # e_{k+1} changes the sign of e_A e_B for the B that hold it, i.e.
        # when an odd number of A's factors lie above e_{k+1}, exclusive or
        # e_{k+1} is a factor of A squaring to -1.  bitwise_count gives uint8,
        # which a shift by k >= 8 would empty.
        flips = np.zeros(dim, dtype=np.intp)
        for k in range(n):
            factor = (idx >> k) & 1
            flips |= ((np.bitwise_count(idx >> (k + 1)) & 1).astype(np.intp) ^ factor * (k >= sig.p)) << k
        self._flips = flips
        self.reverse_signs = _PARITY_SIGNS[self.grades >> 1 & 1]
        # Sign of e_A e_A; the scalar product reduces to a weighted dot with it.
        # It is the involution sign, since e_A (e_A)~ = 1, and reordering e_A
        # e_A takes the reversal's sign, so the product of e_k^2 over the
        # factors of A is the two signs' product.
        self.square_signs = self.involution_signs = self._pair_signs(idx, idx)

        self.lex_to_bits = _lexical_order(n)

        if n <= TABLE_MAX_DIMENSION:
            self.xor = idx[:, None] ^ idx[None, :]
            # sign_left[k, j] = sign(e_{k^j}, e_j), so (A B)[k] = sum_j A[k^j] sign_left[k, j] B[j].
            self.sign_left = self._pair_signs(self.xor, idx[None, :])
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
        # Sign or index tables of each product kind, filled by _signs on first use.
        self._sign_tables: dict = {} if self.sign_left is None else {None: self.sign_left}

    def _pair_signs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # sign(A, B) for broadcastable intp arrays of blade masks, at every n:
        # reordering moves each factor of B past the factors of A above it,
        # and a factor of both contributes its square, so the sign is
        # (-1)^|flips[A] & B|.
        return _PARITY_SIGNS[np.bitwise_count(self._flips[a] & b)]

    def _signs(self, kind: str | None) -> np.ndarray | tuple[np.ndarray, list, list]:
        # Tables over the blade pairs kept by ``kind`` (None keeps all).
        # Dense: sign_left with the dropped pairs set to zero.  Split: a pair
        # is kept exactly when its low and its high halves are, and the
        # tables index signed copies of the operands (see _signed_index):
        #   low_index[|A_h| % 2, j, k] picks sign_low(k ^ j, j) (-1)^(|A_h| |j|) a_i[k ^ j]
        #     from [a_i, -a_i, 0], the transposed low block of row A_h = i;
        #   groups: one (ids, where, gather, block) per kept-row count and
        #     parity of the rows, ids ascending, gather their stacked rows of
        #     [b; -b] holding sign_high(i, i ^ C_h) b[i ^ C_h] for the output
        #     rows C_h they keep, where those (row, C_h) entries of a (high,
        #     high) array and block their low_index;
        #   rows[i] = (cols, gather): row i's kept C_h and its gather, a view
        #     into its group's stack.
        # O(pairs of high rows) entries, built once per kind.
        tables = self._sign_tables.get(kind)
        if tables is None:
            if self.sign_left is not None:
                i = self.xor  # left blade of the (k, j) entry is k^j
                j = np.arange(self.dim, dtype=np.intp)[None, :]
                tables = np.where(_PAIR_CONDITIONS[kind](i, j), self.sign_left, 0.0)
            else:
                low, high = self._factors()
                even = low._signs(kind).T
                odd = even * _PARITY_SIGNS[low.grades, None]
                low_index = np.stack([_signed_index(low.xor, s, low.dim) for s in (even, odd)])
                high_signs = np.take_along_axis(high._signs(kind), high.xor, axis=1).T
                gather = _signed_index(high.xor, high_signs, high.dim)
                kept = high_signs != 0
                keys = kept.sum(axis=1) * 2 + (high.grades & 1)
                rows, groups = [None] * high.dim, []
                for key in dict.fromkeys(keys.tolist()):
                    count, parity = divmod(key, 2)
                    ids = np.flatnonzero(keys == key)
                    cols = np.nonzero(kept[ids])[1].reshape(ids.size, count)
                    stack = np.take_along_axis(gather[ids], cols, axis=1)
                    full = count == high.dim
                    groups.append((ids, ids if full else (ids[:, None], cols), stack, low_index[parity]))
                    for r, i in enumerate(ids.tolist()):
                        rows[i] = (slice(None) if full else cols[r], stack[r])
                tables = (low_index, rows, groups)
            self._sign_tables[kind] = tables
        return tables

    def multiply(self, a: np.ndarray, b: np.ndarray, kind: str | None = None) -> np.ndarray:
        """Product on raw coefficient arrays, restricted to blade pairs selected by ``kind``.

        None keeps every pair: the geometric product.  'outer' keeps disjoint
        pairs (grades add), 'left' pairs with the left factors contained in
        the right (grade s-r), 'right' the mirror image.  These restrictions
        reproduce the grade-projected products extended bilinearly over
        homogeneous parts.

        Up to n = 6 every product gathers all 4^n blade pairs from the
        dense tables.  Above that the geometric product of two finite
        operands that hold no zero (or -0.0) coefficient runs as block
        products on the ideal frame, at about 2^n (3K + r) multiply-adds
        (see the module docstring).  Every other product there takes the
        split kernel, at 2^n times the low dimension per nonzero high row of
        a, and sums only the blade pairs that exist: graded kinds, an operand with a zero
        coefficient on either side (vectors, blades, even and graded
        elements), and operands holding an inf or NaN.  The split kernel
        batches the rows, one gather-matmul per group of them, when every
        high row of a holds a nonzero and its terms fit 2^15 entries (up to
        n = 10), and loops over the nonzero rows otherwise.  Both paths
        read the one set of tables that ``kind`` builds on its first use,
        and either way each output adds its terms in ascending high row
        from +0.0, so both paths give the same bits.
        """
        if self.sign_left is not None:
            return (a[self.xor] * self._signs(kind)) @ b
        if kind is None and a.all() and b.all() and np.isfinite(a).all() and np.isfinite(b).all():
            return self._block_product(a, b)
        low, high = self._factors()
        a = a.reshape(high.dim, low.dim)
        b = b.reshape(high.dim, low.dim)
        signed_a = np.concatenate([a, -a, np.zeros((high.dim, 1))], axis=1)
        signed_b = np.concatenate([b, -b])
        live = a.any(axis=1)
        low_index, rows, groups = self._signs(kind)
        if live.all() and a.size * high.dim <= _BATCH_ENTRIES:
            return self._batched_product(signed_a, signed_b, groups).reshape(-1)
        out = np.zeros((high.dim, low.dim))
        for i in np.flatnonzero(live).tolist():
            # Row A_h = i of a meets row B_h = i ^ C_h of b in output row C_h,
            # through the transposed low left-multiplication block of row i.
            cols, gather = rows[i]
            out[cols] += signed_b.take(gather, axis=0) @ signed_a[i].take(low_index[i.bit_count() & 1])
        return out.reshape(-1)

    @staticmethod
    def _batched_product(signed_a: np.ndarray, signed_b: np.ndarray, groups: list) -> np.ndarray:
        # The row loop of `multiply` as one gather-matmul per group of rows:
        # row A_h = i puts its terms in terms[i] (+0.0 where it keeps no
        # pair), and output row C_h adds terms[:, C_h] in ascending i from
        # +0.0.  These are the loop's additions in the loop's order, the
        # batched matmul runs the loop's gemm on each row's matrices, and a
        # sum that starts at +0.0 is never -0.0, so adding +0.0 changes no
        # bit: every output keeps the loop's bits.
        high, low = signed_a.shape[0], signed_b.shape[1]
        terms = np.zeros((high, high, low))
        for ids, where, gather, block in groups:
            terms[where] = signed_b.take(gather, axis=0) @ signed_a[ids].take(block, axis=1)
        return np.add.reduce(terms, axis=0, initial=0.0)

    def _block_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a b through the blocks of ideal_frame, as the module docstring
        # derives: the spectra W of both operands in one gemm, a's blocks and
        # the K columns of b's blocks that hold each entry of W once in one
        # signed gather each from [W_a; W_b; -W_a; -W_b], their products, and
        # back through one signed gather and one gemm.
        frame = ideal_frame(self.sig)
        spectra = frame.spectra(np.stack([a, b]))
        signed = np.concatenate([spectra, -spectra]).reshape(-1)
        product = (signed.take(frame.left) @ signed.take(frame.right)).reshape(-1)
        return (np.concatenate([product, -product]).take(frame.inverse) @ frame.back).reshape(-1).take(frame.order)

    def _support_product(
        self,
        ia: np.ndarray,
        av: np.ndarray,
        ib: np.ndarray,
        bv: np.ndarray,
        kind: str | None = None,
        grade: int | None = None,
    ) -> np.ndarray:
        # The product of sum_s av[s] e_{ia[s]} and sum_t bv[t] e_{ib[t]} (intp
        # masks and their values) as a 2^n array, over the pairs that ``kind``
        # keeps and, given ``grade``, whose blade i ^ j has that grade.  Each
        # kept pair adds sign(i, j) av bv to entry i ^ j, in pair order (s
        # first): bincount sums in order, so the bits depend on no BLAS kernel.
        # A dropped pair adds +0.0, which changes no sum that starts at +0.0,
        # and the masked multiply never forms it, so it cannot overflow.
        i, j, av, bv = ia[:, None], ib[None, :], av[:, None], bv[None, :]
        xor = i ^ j
        keep = True if kind is None else _PAIR_CONDITIONS[kind](i, j)
        if grade is not None:
            keep = keep & (self.grades[xor] == grade)
        weights = np.multiply(self._pair_signs(i, j) * av, bv, out=np.zeros(xor.shape), where=keep)
        return np.bincount(xor.ravel(), weights=weights.ravel(), minlength=self.dim)

    def left_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by a: (a b) = left_matrix(a) @ b."""
        if self.sign_left is not None:
            return a[self.xor] * self.sign_left
        low, high = self._factors()
        block_index, out_index = self._left_index
        a = np.asarray(a, dtype=float).reshape(high.dim, low.dim)  # float, as on the dense path
        blocks = np.concatenate([a, -a], axis=1).take(block_index)
        signed = np.concatenate([blocks, -blocks]).reshape(-1, low.dim)
        return signed.take(out_index, axis=0).reshape(self.dim, self.dim)

    def right_matrices(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """R(x_t) of every row x_t of a (k, 2^n) stack, as a (k, 2^n, 2^n) array.

        R(x) is the matrix of right multiplication by x, (y x) = R(x) @ y, with
        R(x)[k, i] = sign(i, i ^ k) x[i ^ k].  Every entry is a signed copy of
        an entry of x, so the stack is one gather from [x, -x] and holds no
        rounding.  R(x)^T = R(x~), so the stack of x~ gives the transposes.
        ``out``, if given, is a C-contiguous (k, 2^n, 2^n) array to fill.
        Every n is served, at 4^n floats per row and a 4^n-entry index table
        that the first call builds and the table keeps (512 KB at n = 8,
        128 MB at n = 12).
        """
        signed = np.concatenate([x, -x], axis=1)
        # Every index is in range; "clip" lets take write into out directly,
        # where the default mode would fill a buffer and copy it over.
        return np.take(signed, self._right_index, axis=1, out=out, mode="clip")

    def multiply_rows(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row l is a_l x_l for (k, 2^n) stacks a and x; a (2^n,) ``a`` multiplies every row of x.

        One ``multiply`` per row.  The training rows use it above n = 6,
        where they keep no right-multiplication matrices.
        """
        return np.array([self.multiply(a_l, x_l) for a_l, x_l in zip(np.broadcast_to(a, x.shape), x)])

    @cached_property
    def _right_index(self) -> np.ndarray:
        # Position of R(x)[k, i] = sign(i, i ^ k) x[i ^ k] in [x, -x], built on
        # first use.
        idx = np.arange(self.dim, dtype=np.intp)
        xor = idx[:, None] ^ idx[None, :]
        return _signed_index(xor, self._pair_signs(idx[None, :], xor), self.dim)

    @cached_property
    def _left_index(self) -> tuple[np.ndarray, np.ndarray]:
        # Index tables of the split left_matrix.  blocks[A_h, k, j] picks the
        # low block entry (k, j) of row A_h from [a, -a] (flattened, a as a
        # (high, low) array).  Rows and columns of the matrix split as
        # (high, low), and block (C_h, B_h) is sign_high(A_h, B_h) times the
        # low block of A_h = C_h ^ B_h, so out[C_h, k, B_h] picks its row k
        # from [blocks; -blocks] (rows indexed by signed A_h and k).  Built on
        # first use.
        low, high = self._factors()
        low_index = self._signs(None)[0]
        row_starts = 2 * low.dim * np.arange(high.dim)[:, None, None]
        blocks = row_starts + low_index[high.grades & 1].transpose(0, 2, 1)
        signed_rows = _signed_index(high.xor, high.sign_left, high.dim)
        out = signed_rows[:, None, :] * low.dim + np.arange(low.dim)[None, :, None]
        return blocks, out

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
    similar.  Conjugation by a blade e_R flips eps_i exactly where e_R
    anticommutes with e_{A_i}, which bit i of g(R) records, so e_R f_e
    e_R^-1 = f_{e ^ g(R)}, and right multiplication by e_R^-1, which commutes
    with every left multiplication, maps Cl f_e onto Cl f_{e ^ g(R)}.  g is
    linear over GF(2) and zero on S, so its values over the R_j are a
    subspace, ideals in one of its cosets have similar blocks of every left
    multiplication, and ``classes`` is the smallest index of each coset: one
    class when p - q != 1 (mod 4), where the algebra is simple, and two
    otherwise.

    One transform, `spectra`, serves both readers of the blocks M_e(a) =
    U_e^T L(a) U_e, ``ProductTable``'s block product and `blocks`:
    ``forward`` and ``back`` are sigma_t chars[t, u] and chars[u, t] sigma_t
    / K, ``left`` the position of entry (i, j) of the block of every class in
    the signed spectra [W_a; W_b; -W_a; -W_b] of a product a b (see the
    module docstring), ``right`` that of the columns j of b's blocks that
    hold each entry of W_b once, ``inverse`` that of each entry of the
    product's spectrum in those columns and their negation, and ``order``
    undoes ``support``.
    """

    def __init__(self, table: ProductTable):
        masks = np.arange(table.dim, dtype=np.intp)
        span = masks[:1]
        sigma = np.ones(1)
        blades = []

        def anticommute(a, b) -> np.ndarray:
            # e_A e_B = -e_B e_A: the two orders differ in sign.
            return table._pair_signs(a, b) != table._pair_signs(b, a)

        # The greedy choice by ascending mask: every unit-square blade outside
        # the span of those chosen that commutes with each of them.  Both
        # conditions only tighten as blades are chosen, so the next choice is
        # the smallest mask still eligible after the last one.
        eligible = table.square_signs == 1.0
        eligible[0] = False
        while eligible.any():
            a = int(eligible.argmax())
            blades.append(a)
            sigma = np.concatenate([sigma, sigma * table._pair_signs(span, a)])
            span = np.concatenate([span, span ^ a])
            eligible[span] = False
            eligible &= ~anticommute(masks, a)
        # The top bits of the masks of S are the leading bits of S in echelon
        # form, so the smallest mask of each coset of S is its one mask with
        # none of them: the reps form a subspace, in ascending order, so
        # R_i ^ R_j = R_{i ^ j}.
        pivots = 0
        for s in span[1:].tolist():
            pivots |= 1 << (s.bit_length() - 1)
        reps = masks[(masks & pivots) == 0]
        r, k = reps.size, span.size
        # Bit l of g[j] says whether e_{R_j} anticommutes with e_{A_l}, and
        # bit l of h[j] whether sign(R_j, A_l) = -1.
        column = np.array(blades, dtype=np.intp)[:, None]
        bits = 1 << np.arange(len(blades), dtype=np.intp)
        g = bits @ anticommute(column, reps)
        h = bits @ (table._pair_signs(reps, column) < 0)
        values, cols = np.unique(g, return_index=True)
        t = np.arange(k, dtype=np.intp)
        classes = t[(t[:, None] ^ values).min(axis=1) == t]
        self.classes = tuple(classes.tolist())
        self.blades = tuple(blades)
        self.support = reps[:, None] ^ span[None, :]
        self.signs = table._pair_signs(reps[:, None], span[None, :]) * sigma
        self.chars = _PARITY_SIGNS[np.bitwise_count(t[:, None] & t[None, :])]
        self.forward = sigma[:, None] * self.chars
        self.back = self.chars * (sigma / k)
        # Entry (i, j) of block e is sign(D, R_j) W[D, e ^ g(R_j) ^ h(D)]
        # with D = R_i ^ R_j; the columns j of the first rep of each value of
        # g hold every u of the classes' blocks once.
        i = np.arange(r, dtype=np.intp)
        d = i[:, None] ^ i[None, :]
        pos = d * k + (classes[:, None, None] ^ g ^ h[d])
        signs = table._pair_signs(reps[d], reps)
        self.left = _signed_index(pos, signs, 2 * r * k)
        pos = pos[:, :, cols]
        signs = np.broadcast_to(signs[:, cols], pos.shape)
        self.right = _signed_index(pos + r * k, signs, 2 * r * k)
        perm = np.argsort(pos.reshape(-1))
        self.inverse = _signed_index(perm, signs.reshape(-1)[perm], perm.size).reshape(r, k)
        self.order = np.argsort(self.support.reshape(-1))

    def spectra(self, stack: np.ndarray) -> np.ndarray:
        """The transforms W_l = a_l.take(``support``) @ ``forward`` of the rows a_l of an (m, 2^n) stack.

        An (m r, K) array, W_0 to W_{m-1} one after another.
        """
        return stack.take(self.support, axis=1).reshape(-1, len(self.forward)) @ self.forward

    def blocks(self, a: np.ndarray) -> np.ndarray:
        """The blocks U_e^T L(a_l) U_e of every class e, for each row a_l of a (m, 2^n) stack.

        A (m, C, r, r) array for the C ``classes``, each entry a signed
        coefficient of the row's transform, read through ``left`` as the
        block product reads a's blocks: row l gives [W_l; W_l; -W_l; -W_l],
        the signed spectra of the product a_l a_l.
        """
        spectra = self.spectra(a).reshape(len(a), self.support.size)
        signed = np.concatenate([spectra, spectra, -spectra, -spectra], axis=1)
        return signed.take(self.left, axis=1)


@lru_cache(maxsize=None)
def ideal_frame(sig: Signature) -> IdealFrame:
    """Cached IdealFrame for the signature, from blades picked greedily by ascending mask."""
    return IdealFrame(product_table(sig))


#: (-1)^k for every count k of sign flips a pair of blades can have.
_PARITY_SIGNS = np.where(np.arange(MAX_DIMENSION + 1) % 2 == 0, 1.0, -1.0)

_PAIR_CONDITIONS = {
    "outer": lambda i, j: (i & j) == 0,
    "left": lambda i, j: (i & ~j) == 0,
    "right": lambda i, j: (j & ~i) == 0,
}


#: Most entries of the (live rows, high, low) array of terms that the split
#: kernel of `ProductTable.multiply` batches, as filtering's _BLOCK_ENTRIES:
#: 2^15 doubles (256 KB) admit every operand up to n = 10, and keep n = 11
#: and 12, where the array would take 512 KB and 2 MB, on the row loop.
_BATCH_ENTRIES = 1 << 15


#: Longest sum of squares that `_sq_sum` adds in a Python loop, where that is
#: cheaper than two numpy calls.
_SHORT_SUM = 16


def _sq_sum(v: np.ndarray, w: np.ndarray | None = None) -> float:
    # The sum of the squares of v's entries (flattened), or given w of the
    # products v_i w_i, added left to right from the first: every partial sum
    # of an accumulate is one addition to the one before it, so unlike np.dot
    # (a BLAS ddot) the bits depend on no CPU kernel, and unlike sum() on no
    # Python version.  Up to _SHORT_SUM squares a Python loop makes the same
    # additions for less: 0.0 + x*x is x*x, as a square is never -0.0.
    if w is not None:
        return np.add.accumulate((v * w).ravel()).item(-1)
    if v.size > _SHORT_SUM:
        return np.add.accumulate(np.square(v.ravel())).item(-1)
    total = 0.0
    for x in v.ravel().tolist():
        total += x * x
    return total


# ---------------------------------------------------------------------------
# multivectors


class Multivector:
    """Element of Cl(p,q): 2^n real coefficients over the blade basis.

    Values are immutable: the constructor copies ``coeffs`` into a read-only
    array of its own, and operations return new instances without mutating
    their arguments, so multivectors can be shared freely.  Both the
    constructor and the internal no-copy wrapper ``_own`` mark the array
    read-only and fill the two slots through their slot descriptors, past
    the immutable ``__setattr__``.

    A value keeps nothing but its signature and coefficients.  The filter
    keeps no per-sample or per-weight state here: `run_training` stacks a
    signal's coefficients, involutions and window energies once, and a
    ``FilterState`` its weights.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs):
        arr = np.array(_real_array(np.ravel(coeffs), "coefficients"))
        if arr.shape != (sig.dim,):
            raise ValueError(f"{sig} needs {sig.dim} coefficients, got {arr.shape[0]}")
        arr.setflags(False)
        _set_sig(self, sig)
        _set_coeffs(self, arr)

    @staticmethod
    def _own(sig: Signature, arr: np.ndarray) -> "Multivector":
        # Takes over a float array of shape (sig.dim,), or a row of one, that
        # no one else writes (freshly computed, or already read-only): wraps
        # it without a copy.  The flag goes by position: setflags(False)
        # takes half the time of setflags(write=False).
        arr.setflags(False)
        m = _new(Multivector)
        _set_sig(m, sig)
        _set_coeffs(m, arr)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls._own(sig, np.zeros(sig.dim))

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        """value times the scalar blade; ``value`` must be a real number (not a bool), else ValueError."""
        c = np.zeros(sig.dim)
        c[0] = _real(value, "scalar values")
        return cls._own(sig, c)

    @classmethod
    def basis_blade(cls, sig: Signature, bits: int, coeff: float = 1.0) -> "Multivector":
        """coeff times the blade e_bits; ``coeff`` must be a real number (not a bool), else ValueError."""
        c = np.zeros(sig.dim)
        c[_blade_mask(bits, sig)] = _real(coeff, "blade coefficients")
        return cls._own(sig, c)

    @classmethod
    def from_vector(cls, sig: Signature, components) -> "Multivector":
        """Grade-1 element from n vector components."""
        comp = _real_array(components, "vector components")
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
        basis blade.  Every call returns a new value.
        """
        return Multivector._own(self.sig, self.coeffs * product_table(self.sig).involution_signs)

    def reverse(self) -> "Multivector":
        """Factor-order reversal without metric signs ((-1)^(r(r-1)/2) per grade)."""
        table = product_table(self.sig)
        return Multivector._own(self.sig, self.coeffs * table.reverse_signs)

    def grade(self, k: int) -> "Multivector":
        """Grade-k part; the parts over k = 0..n sum back to the element.

        ``k`` must be an int or a numpy integer; bools and floats raise ValueError.
        """
        k = _index(k, "grades")
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
        return _sq_sum(self.coeffs * product_table(self.sig).square_signs, other.coeffs)

    def component(self, bits: int) -> float:
        """Coefficient of blade e_bits (equals the scalar product with (e_bits)~).

        ``bits`` must be an int or a numpy integer below the blade count; bools,
        floats and masks out of range raise ValueError.
        """
        return float(self.coeffs[_blade_mask(bits, self.sig)])

    def modulus(self) -> float:
        """Euclidean norm of the coefficient vector, sqrt(M * M~)."""
        return math.sqrt(_sq_sum(self.coeffs))

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


_new = object.__new__
_set_sig = Multivector.sig.__set__
_set_coeffs = Multivector.coeffs.__set__


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
