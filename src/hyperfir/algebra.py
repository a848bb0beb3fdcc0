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

Up to n = 8 the signs of all blade pairs sit in one dense 2^n x 2^n table.
Above that the algebra is split into the low n_l = n - n//2 basis vectors and
the high n - n_l ones, and a blade A into its high and low masks (A_h, A_l).
Reordering e_A e_B moves the factors of A_h past those of B_l and never the
factors of A_l past those of B_h, and the repeated factors are repeated in
each half, so

    sign(A, B) = sign_low(A_l, B_l) * sign_high(A_h, B_h) * (-1)^(|A_h| |B_l|),

with sign_low and sign_high the dense tables of the two sub-algebras (at most
64 x 64).  The product is then a sum over the high parts A_h present in the
left operand: each costs one gather of a low-algebra left-multiplication
matrix and one matmul with the matching rows of the right operand.

For file formats and display, blades are ordered grade-first and then
lexicographically by factor indices ("1, e1, e2, e3, e12, e13, e23, e123" for
n = 3); internally everything stays in bitmask order.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Signature:
    """Algebra descriptor: p basis vectors squaring to +1, q squaring to -1."""

    p: int
    q: int

    def __post_init__(self):
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

    def metric_array(self) -> np.ndarray:
        return np.array([1.0] * self.p + [-1.0] * self.q)

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
    # Bitmasks sorted by (grade, factor tuple); the file/display order.
    masks = sorted(range(1 << n), key=lambda m: (blade_grade(m), blade_factors(m)))
    return np.array(masks, dtype=np.intp)


# ---------------------------------------------------------------------------
# product machinery


class ProductTable:
    """Precomputed multiplication structure for one signature.

    Holds the per-blade sign arrays used by the involutions and, for
    dimensions up to ``TABLE_MAX_DIMENSION``, the dense pair tables
    (result mask and sign for every blade pair) that make the geometric
    product a single gather-and-matmul.  Larger algebras keep no pair tables
    (``xor``, ``sign`` and ``sign_left`` are None): they split every blade
    into its low and high basis vectors and multiply through the dense tables
    of those two sub-algebras, as the module docstring derives.  Instances
    are immutable after construction and cached per signature.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        n = sig.n
        dim = sig.dim
        self.dim = dim
        idx = np.arange(dim, dtype=np.intp)

        self.grades = np.bitwise_count(idx.astype(np.uint64)).astype(np.intp)
        # Product of e_k^2 over the factors of each blade.
        metric = sig.metric_array()
        mprod = np.ones(dim)
        for k in range(n):
            mprod[(idx >> k) & 1 == 1] *= metric[k]
        self.metric_prod = mprod
        self.reverse_signs = np.where(self.grades * (self.grades - 1) // 2 % 2 == 0, 1.0, -1.0)
        self.involution_signs = self.metric_prod * self.reverse_signs
        # Sign of e_A e_A; the scalar product reduces to a weighted dot with it.
        # It is the involution sign, since e_A (e_A)~ = 1.
        self.square_signs = self.involution_signs

        self.lex_to_bits = _lexical_order(n)

        if n <= TABLE_MAX_DIMENSION:
            self.xor = idx[:, None] ^ idx[None, :]
            self.sign = self._pair_signs()
            # sign_left[k, j] = sign(e_{k^j}, e_j), so that the product is
            # (A B)[k] = sum_j A[k^j] sign_left[k, j] B[j].
            self.sign_left = np.take_along_axis(self.sign, self.xor, axis=0)
        else:
            self.xor = None
            self.sign = None
            self.sign_left = None
            # Low factor: e_1 .. e_{n_low}; high factor: the rest.  Blade i is
            # row i >> n_low, column i & (2^n_low - 1) of a (high, low) array.
            # Their tables are looked up on first use.
            n_low = n - n // 2
            p_low = min(sig.p, n_low)
            p_high = sig.p - p_low
            self._factor_sigs = (Signature(p_low, n_low - p_low), Signature(p_high, n // 2 - p_high))
        # Lazily built sign tables: the grade-restricted products below the
        # cap, and every product kind of the split above it.
        self._masked_sign_left: dict[str, np.ndarray] = {}
        self._split_sign_tables: dict[str | None, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _pair_signs(self) -> np.ndarray:
        n, dim = self.sig.n, self.dim
        idx = np.arange(dim, dtype=np.uint64)
        a = idx[:, None]
        b = idx[None, :]
        swaps = np.zeros((dim, dim), dtype=np.uint64)
        for shift in range(1, n):
            swaps += np.bitwise_count((a >> shift) & b)
        reorder = np.where(swaps & 1 == 0, 1.0, -1.0)
        return reorder * self.metric_prod[(a & b).astype(np.intp)]

    def _kept_sign_left(self, kind: str | None) -> np.ndarray:
        # sign_left with the blade pairs that ``kind`` drops set to zero.
        if kind is None:
            return self.sign_left
        table = self._masked_sign_left.get(kind)
        if table is None:
            i = self.xor  # left blade of the (k, j) entry is k^j
            j = np.arange(self.dim, dtype=np.intp)[None, :]
            keep = _PAIR_CONDITIONS[kind](i, j)
            table = np.where(keep, self.sign_left, 0.0)
            self._masked_sign_left[kind] = table
        return table

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product on raw coefficient arrays."""
        if self.sign_left is not None:
            return (a[self.xor] * self.sign_left) @ b
        return self._split_product(a, b, None)

    def left_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by a: (a b) = left_matrix(a) @ b."""
        if self.sign_left is not None:
            return a[self.xor] * self.sign_left
        low, high = self._factors()
        even, odd, _ = self._split_signs(None)
        a = a.reshape(high.dim, low.dim)
        # blocks[A_h] is the transposed low block of row A_h of a.
        blocks = a[:, low.xor] * np.where(high.grades[:, None, None] % 2 == 0, even, odd)
        # Rows and columns split as (high, low); block (C_h, B_h) is
        # sign(A_h, B_h) times the low block of A_h = C_h ^ B_h.
        out = np.empty((high.dim, low.dim, high.dim, low.dim))
        for c in range(high.dim):
            np.multiply(
                blocks[high.xor[c]].transpose(0, 2, 1),
                high.sign_left[c, :, None, None],
                out=out[c].transpose(1, 0, 2),
            )
        return out.reshape(self.dim, self.dim)

    def multiply_masked(self, a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
        """Product restricted to blade pairs selected by ``kind``.

        'outer' keeps disjoint pairs (grades add), 'left' pairs with the left
        factors contained in the right (grade s-r), 'right' the mirror image.
        These restrictions reproduce the grade-projected products extended
        bilinearly over homogeneous parts.
        """
        if self.sign_left is not None:
            return (a[self.xor] * self._kept_sign_left(kind)) @ b
        return self._split_product(a, b, kind)

    def _factors(self) -> tuple[ProductTable, ProductTable]:
        return product_table(self._factor_sigs[0]), product_table(self._factor_sigs[1])

    def _split_signs(self, kind: str | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Sign tables of the split product over the pairs kept by ``kind``,
        # which keeps a pair exactly when it keeps its low and its high halves:
        #   even[j, k] = sign_low(k ^ j, j), for left blades with |A_h| even;
        #   odd[j, k] = even[j, k] (-1)^|j|, the crossing sign for |A_h| odd;
        #   high[i, c] = sign_high(i, i ^ c).
        tables = self._split_sign_tables.get(kind)
        if tables is None:
            low, high = self._factors()
            even = np.ascontiguousarray(low._kept_sign_left(kind).T)
            odd = even * np.where(low.grades % 2 == 0, 1.0, -1.0)[:, None]
            high_signs = np.take_along_axis(high._kept_sign_left(kind), high.xor, axis=1).T
            tables = (even, odd, np.ascontiguousarray(high_signs))
            self._split_sign_tables[kind] = tables
        return tables

    def _split_product(self, a: np.ndarray, b: np.ndarray, kind: str | None) -> np.ndarray:
        low, high = self._factors()
        even, odd, high_signs = self._split_signs(kind)
        a = a.reshape(high.dim, low.dim)
        b = b.reshape(high.dim, low.dim)
        out = np.zeros((high.dim, low.dim))
        for i in np.flatnonzero(a.any(axis=1)):
            # Row A_h = i of a meets row B_h = i ^ C_h of b in output row C_h,
            # through the low left-multiplication matrix of row i.
            right = b[high.xor[i]]
            right *= high_signs[i][:, None]
            out += right @ (a[i][low.xor] * (odd if high.grades[i] % 2 else even))
        return out.reshape(-1)

    def structure_scalar(self, a: int, b: int, c: int) -> int:
        """Scalar part of e_a (e_c)~ (e_b)~; the coefficient of e_a in e_b e_c.

        Always -1, 0, or +1, and nonzero exactly when a == b XOR c.
        """
        if a != b ^ c:
            return 0
        sign_cb, d = blade_product(c, b, self.sig)  # e_c e_b = sign_cb e_d with d = a
        inv = int(self.involution_signs[c]) * int(self.involution_signs[b])
        square, _ = blade_product(a, d, self.sig)  # e_a e_a sign
        return inv * sign_cb * square


@lru_cache(maxsize=None)
def product_table(sig: Signature) -> ProductTable:
    """Cached ProductTable for the signature."""
    return ProductTable(sig)


_PAIR_CONDITIONS = {
    "outer": lambda i, j: (i & j) == 0,
    "left": lambda i, j: (i & ~j) == 0,
    "right": lambda i, j: (j & ~i) == 0,
}


# ---------------------------------------------------------------------------
# multivectors


class Multivector:
    """Element of Cl(p,q): 2^n real coefficients over the blade basis.

    Values are immutable: the constructor copies ``coeffs`` into a read-only
    array of its own, and operations return new instances without mutating
    their arguments, so multivectors can be shared freely.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs):
        arr = np.array(np.ravel(coeffs), dtype=float)
        if arr.shape != (sig.dim,):
            raise ValueError(f"{sig} needs {sig.dim} coefficients, got {arr.shape[0]}")
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _own(cls, sig: Signature, arr: np.ndarray) -> "Multivector":
        # Takes over a freshly computed float array of shape (sig.dim,) that
        # no one else holds: marks it read-only and wraps it without a copy.
        arr.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "sig", sig)
        object.__setattr__(m, "coeffs", arr)
        return m

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

    def copy(self) -> "Multivector":
        return Multivector(self.sig, self.coeffs)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.coeffs)))

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

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector._own(self.sig, float(other) * self.coeffs)
        return NotImplemented

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
        basis blade.
        """
        table = product_table(self.sig)
        return Multivector._own(self.sig, self.coeffs * table.involution_signs)

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
        return float(np.linalg.norm(self.coeffs))

    def signed_magnitude_sq(self) -> float:
        """M * M without the involution: sum of M_A^2 e_A^2, possibly negative.

        For Cl(1,0) restricted to {1, e1} this is the hyperbolic-number norm
        square.
        """
        table = product_table(self.sig)
        return float(np.dot(self.coeffs * table.square_signs, self.coeffs))

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

_TEXT_RE = re.compile(r"^\s*(\d+)\s*,\s*(\d+)\s*:\s*\[(.*)\]\s*$", re.DOTALL)


def format_multivector(m: Multivector) -> str:
    """Round-trippable text form with lexical blade order and shortest floats."""
    table = product_table(m.sig)
    body = ", ".join(repr(float(c)) for c in m.coeffs[table.lex_to_bits])
    return f"{m.sig.p},{m.sig.q}:[{body}]"


def parse_multivector(text: str) -> Multivector:
    match = _TEXT_RE.match(text)
    if not match:
        raise ValueError(f"not a multivector literal: {text!r}")
    sig = Signature(int(match.group(1)), int(match.group(2)))
    body = match.group(3).strip()
    parts = [p for p in (s.strip() for s in body.split(",")) if p] if body else []
    if len(parts) != sig.dim:
        raise ValueError(f"{sig} needs {sig.dim} coefficients, got {len(parts)}")
    values = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(values)):
        raise ValueError("multivector coefficients must be finite")
    table = product_table(sig)
    coeffs = np.empty(sig.dim)
    coeffs[table.lex_to_bits] = values
    return Multivector._own(sig, coeffs)
