"""Exact integer and rational-mod-1 linear algebra.

Provides:
- Rational01: reduced rationals taken modulo 1 (phase exponents), kept as
  an integer pair: construction reduces with % and gcd, and +, -, negation,
  *k and rat_sum cross-multiply integers, so no Fraction is built on these
  paths (a Fraction is still accepted as input and given by .fraction;
  the module imports fractions only there).
- IntMatrix: immutable arbitrary-precision integer matrices.
- det_adjugate: determinant and integer adjugate by the one fraction-free
  Gauss-Jordan pass (determinants, unimodular inverses, K-matrix statistics).
- smith_normal_form: U*A*V = S with unimodular U, V and divisibility chain.
- howell_form: Howell form over Z_N. Input rows are dense integer
  sequences or PackedRows; each Howell row is one int of fixed-width
  lanes, one residue per lane (unpack_row reads it), so a row update is a
  few big-int operations and a lane-wise reduction mod N.
- ModSolver: linear systems sum_j x_j * columns[j] = b with per-entry
  moduli, given as the columns the unknowns multiply; solves, kernels
  and image sizes from one Howell form.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class IntegralityError(ArithmeticError):
    """An exact result that must be an integer matrix or number is not."""


# ---------------------------------------------------------------------------
# Rational numbers modulo 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rational01:
    """A rational number reduced modulo 1, stored in lowest terms.

    Represents values such as statistics q(a) and braiding phases b_q(a, a'):
    0 <= numerator/denominator < 1 with gcd(numerator, denominator) = 1.
    Built from two integers (denominator nonzero, either sign) or from a
    Fraction alone.
    """

    numerator: int
    denominator: int

    def __init__(self, numerator: int | Fraction = 0, denominator: int = 1):
        if not isinstance(numerator, int):  # a Fraction
            if denominator != 1:
                raise ValueError("pass a Fraction alone or two integers")
            numerator, denominator = numerator.numerator, numerator.denominator
        elif not denominator:
            raise ZeroDivisionError("zero denominator")
        elif denominator < 0:
            numerator, denominator = -numerator, -denominator
        numerator %= denominator
        g = gcd(numerator, denominator)
        object.__setattr__(self, "numerator", numerator // g)
        object.__setattr__(self, "denominator", denominator // g)

    @property
    def fraction(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.numerator, self.denominator)

    def __add__(self, other: "Rational01 | int") -> "Rational01":
        if isinstance(other, int):
            return self
        d, e = self.denominator, other.denominator
        if d == e:
            return Rational01(self.numerator + other.numerator, d)
        return Rational01(self.numerator * e + other.numerator * d, d * e)

    def __sub__(self, other: "Rational01 | int") -> "Rational01":
        if isinstance(other, int):
            return self
        d, e = self.denominator, other.denominator
        if d == e:
            return Rational01(self.numerator - other.numerator, d)
        return Rational01(self.numerator * e - other.numerator * d, d * e)

    def __neg__(self) -> "Rational01":
        return Rational01(-self.numerator, self.denominator)

    def __mul__(self, k: int) -> "Rational01":
        return Rational01(self.numerator * k, self.denominator)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.numerator == 0

    @staticmethod
    def from_string(text: str) -> "Rational01":
        if "/" in text:
            p, q = text.split("/")
            return Rational01(int(p), int(q))
        return Rational01(int(text))

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self) -> str:
        return f"Rational01({self.numerator}, {self.denominator})"


def rat_sum(values: Iterable[Rational01]) -> Rational01:
    num, den = 0, 1
    for v in values:
        d = v.denominator
        if d == den:
            num += v.numerator
        else:
            step = lcm(den, d)
            num = num * (step // den) + v.numerator * (step // d)
            den = step
    return Rational01(num, den)


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


class IntMatrix:
    """An immutable rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence[int]], rows: int | None = None,
                 cols: int | None = None):
        data = [tuple(int(x) for x in row) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = cols if cols is not None else 0
        self._data = tuple(data)
        self.rows = len(data) if rows is None else rows
        self.cols = width
        if rows is not None and rows != len(data):
            raise ValueError("row count mismatch")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)]
                          for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def diagonal(entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return IntMatrix([[entries[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def tolist(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.tolist()!r})"

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [[sum(self._data[i][k] * other._data[k][j]
                    for k in range(self.cols))
                for j in range(other.cols)]
               for i in range(self.rows)]
        return IntMatrix(out, cols=other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return IntMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self._data, other._data)],
                         cols=self.cols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self._data],
                         cols=self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self._data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)], cols=self.rows)

    def mat_vec(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(row[j] * x[j] for j in range(self.cols))
                for row in self._data]

    def determinant(self) -> int:
        """Exact determinant (see det_adjugate)."""
        return det_adjugate(self)[0]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.determinant()) == 1


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition U*A*V = S (U, V unimodular; S diagonal, d_i | d_{i+1})."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(self.S.rows, self.S.cols)
        return [self.S[i, i] for i in range(n)]


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form with smallest-absolute-value pivoting.

    Returns U, S, V with U*A*V = S, U and V unimodular, S diagonal with
    non-negative entries satisfying the divisibility chain d_1 | d_2 | ...
    """
    m, n = A.rows, A.cols
    a = [list(row) for row in (A.row(i) for i in range(m))]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):  # row dst += k * row src
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):  # col dst += k * col src
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # Find the smallest-magnitude nonzero pivot in the trailing block.
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Clear column t below the pivot.
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:  # remainder smaller than pivot: swap up
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # Pivot must divide every entry of the trailing block.
        p = a[t][t]
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    add_row(i, t, 1)  # bring the offending row into row t
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue  # redo elimination at the same t
        if p < 0:
            negate_row(t)
        t += 1

    return SnfResult(IntMatrix(u), IntMatrix(a, cols=n), IntMatrix(v))


def invariant_factors(A: IntMatrix) -> list[int]:
    """Nonzero-or-zero SNF diagonal entries d_1 | d_2 | ..."""
    return smith_normal_form(A).diagonal()


def integer_kernel(A: IntMatrix) -> list[list[int]]:
    """Basis of {x in Z^cols : A x = 0} (columns of V past the SNF rank)."""
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    basis = []
    for j in range(A.cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            basis.append([snf.V[r, j] for r in range(A.cols)])
    return basis


def det_adjugate(A: IntMatrix) -> tuple[int, IntMatrix | None]:
    """(det A, adj A) with adj A * A = det A * I; adj A is None when
    det A = 0.

    Fraction-free Gauss-Jordan on [A | I] (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp.
    1968): each step divides exactly by the previous pivot, so every entry
    stays an integer minor. The last pivot is det A up to the sign of the
    row swaps, and the right block is then the adjugate up to that sign.
    """
    if A.rows != A.cols:
        raise ValueError("not square")
    n = A.rows
    a = [list(A.row(i)) + [1 if i == j else 0 for j in range(n)]
         for i in range(n)]
    prev, sign = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    return sign * prev, IntMatrix([[sign * x for x in row[n:]] for row in a],
                                  cols=n)


def unimodular_inverse(U: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (integer entries)."""
    det, adj = det_adjugate(U)
    if adj is None:
        raise IntegralityError("singular matrix has no inverse")
    if det not in (1, -1):
        raise IntegralityError("matrix is not unimodular: its inverse "
                               "has non-integer entries")
    return adj if det == 1 else -adj


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t




def _unit_for(a: int, N: int) -> int:
    """The smallest unit u in [1, N] with u*a = gcd(a, N) (mod N).

    With g = gcd(a, N), the solutions of u*a = g are the class of the
    inverse of a/g modulo N/g, and that class holds a unit mod N, so only
    its g members in [1, N] are tried.
    """
    a %= N
    g = gcd(a, N)
    step = N // g
    for u in range(pow(a // g, -1, step) or step, N + 1, step):
        if gcd(u, N) == 1:
            return u
    raise ArithmeticError(f"no unit found for {a} mod {N}")


class _Lanes:
    """Rows of residues mod big packed into one int of fixed-width lanes:
    entry j sits in bits [j*width, (j+1)*width). This class owns the
    format; howell_form, ModSolver and the stabilizer module's packed
    phase passes read rows only through it.

    Every value a caller reduces is below 2*big**2 in each lane (a residue
    plus a product of residues, or two such products; every call site
    keeps to it), and the modulus picks the reduction:
    - big a power of two (every model with D a power of two, and big = 1):
      x mod big is x & (big - 1) in each lane, one AND. The lane only has
      to hold 2*big**2 - 1, so big = 4, 8 take 8-bit lanes and big = 16,
      32 take 16-bit lanes.
    - any other big (odd and mixed dimensions): one multiply-shift by a
      precomputed constant gives every lane's quotient by big at once
      (Granlund & Montgomery, "Division by invariant integers using
      multiplication", PLDI 1994): for x < 2**bits, x // big ==
      x * magic >> shift. The lane holds x * magic, about twice the bits.
    Lanes are the smallest of 8, 16, 32 or 64 bits that fit, read in C by
    a memoryview cast; wider lanes are whole bytes, read one slice at a
    time. Lanes never carry into each other.
    """

    def __init__(self, big: int):
        self.big = big
        bits = (2 * big * big - 1).bit_length()
        # power of two: the AND mask of a lane; otherwise the multiply-shift
        self._low = big - 1 if not big & (big - 1) else None
        need = bits
        if self._low is None:
            self.shift = bits + (big - 1).bit_length()
            self.magic = (1 << self.shift) // big + 1
            need += self.magic.bit_length()
        nbytes = next((k for k in (1, 2, 4, 8) if 8 * k >= need),
                      -(-need // 8))
        self.nbytes, self.width = nbytes, 8 * nbytes
        self.mask = (1 << self.width) - 1
        # per lane: the residue bits, or the quotient bits below the next
        # lane's shifted product
        self._lane = (self._low if self._low is not None else
                      (1 << (self.width - self.shift)) - 1
                      ).to_bytes(nbytes, "little")
        self._code = (next(c for c in "BHILQ" if struct.calcsize(c) == nbytes)
                      if nbytes <= 8 and sys.byteorder == "little" else None)
        # translation table v -> v % big for byte values
        self._residue = ((bytes(range(big)) * -(-256 // big))[:256]
                         if big <= 256 else None)

    def reducer(self, n: int):
        """x -> x with every lane reduced mod big, for rows of n lanes."""
        lanes = int.from_bytes(self._lane * n, "little")
        if self._low is not None:
            return lanes.__and__
        big, magic, shift = self.big, self.magic, self.shift

        def reduce(x: int) -> int:
            return x - ((x * magic >> shift) & lanes) * big
        return reduce

    def pack(self, values: Sequence[int]) -> int:
        """The packed row of `values` mod big (any integers)."""
        nb, big = self.nbytes, self.big
        if self._residue is None:
            return int.from_bytes(b"".join((x % big).to_bytes(nb, "little")
                                           for x in values), "little")
        try:
            data = bytes(values).translate(self._residue)
        except (ValueError, TypeError):
            data = bytes([x % big for x in values])
        lanes = bytearray(nb * len(data))
        lanes[::nb] = data
        return int.from_bytes(lanes, "little")

    def transpose(self, rows: Sequence[int], n: int,
                  src: "_Lanes") -> list[int]:
        """The n columns of packed `rows` (at most n lanes of `src` each)
        in these lanes: lane r of column j is lane j of rows[r]. Lanes are
        copied, not reduced: src lanes hold residues below big in no more
        bytes. Each byte of a column's lanes is one strided read of the
        rows' byte matrix, zero-extended to this width (little-endian)."""
        sb, db, stride = src.nbytes, self.nbytes, n * src.nbytes
        data = memoryview(b"".join(row.to_bytes(stride, "little")
                                   for row in rows))
        columns = []
        for j in range(n):
            column = bytearray(len(rows) * db)
            for b in range(sb):
                column[b::db] = data[j * sb + b::stride]
            columns.append(int.from_bytes(column, "little"))
        return columns

    def ones(self, n: int) -> int:
        """n lanes holding 1: `x & ones(n)` keeps each lane's low bit."""
        return int.from_bytes((1).to_bytes(self.nbytes, "little") * n,
                              "little")

    def read(self, row: int, n: int) -> list[int]:
        """Entries 0..n-1 of a packed row of at most n lanes."""
        data = row.to_bytes(n * self.nbytes, "little")
        if self._code is not None:
            return memoryview(data).cast(self._code).tolist()
        nb = self.nbytes
        return [int.from_bytes(data[i:i + nb], "little")
                for i in range(0, len(data), nb)]


def unpack_row(row: int, big: int, width: int) -> list[int]:
    """The dense entries of a packed Howell row of `width` columns over
    Z_big (as returned by howell_form)."""
    return _Lanes(big).read(row, width)


class PackedRows:
    """Rows of `width` residues mod big, already packed in _Lanes(big)
    lanes, for howell_form. Indexing reads a row back dense, so this is
    also a plain sequence of rows."""

    __slots__ = ("packed", "big", "width")

    def __init__(self, packed: list[int], big: int, width: int):
        self.packed, self.big, self.width = packed, big, width

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, i: int) -> list[int]:
        return unpack_row(self.packed[i], self.big, self.width)


def howell_form(rows: Sequence[Sequence[int]] | PackedRows, big: int, *,
                stop: int | None = None) -> tuple:
    """Howell form of the Z_big row span of `rows`.

    `rows` are dense sequences of integers of one width (any residues), or
    PackedRows, taken as they are. Returns (H, pivots). Each H row is one
    int of fixed-width lanes holding its residues mod big, entry j in lane
    j (read it with unpack_row).
    pivots is a staircase list of (row_index, col, value); each pivot
    value divides big. The Howell property guarantees that any span
    element with zeros in its first k coordinates is a Z_big combination
    of the H rows whose pivots lie past column k, so greedy left-to-right
    reduction against H is a complete membership test. All arithmetic
    stays mod big: a row update is two scalar multiples and a sum, then
    one lane-wise reduction, so entries never grow.

    Pending rows wait in buckets keyed by their leading column (the lane
    of their lowest set bit), each in creation order; at column c the
    bucket of c is merged into its first row by xgcd steps, and the other
    rows, once cleared at c, move on to the bucket of their new leading
    column. A bucket holds the rows a scan of every pending row would find
    at c, in the same order, so the pivots and rows are those of the dense
    elimination.

    With `stop`, only columns before `stop` are eliminated, and the result
    is (H, pivots, pending): pending holds the rows still waiting, zero
    before `stop`, in bucket order (leading column, then creation order).
    They generate the span's elements that vanish before `stop`, and
    feeding their entries from `stop` on back in that order continues the
    same elimination: its rows and pivots, shifted by `stop` columns and
    len(H) rows, are the rest of the uninterrupted form.
    """
    lanes = _Lanes(big)
    if isinstance(rows, PackedRows):
        width, packed = rows.width, rows.packed
    else:
        width, packed = len(rows[0]) if rows else 0, map(lanes.pack, rows)
    W, mask = lanes.width, lanes.mask
    reduce = lanes.reducer(width)
    buckets: dict[int, list[int]] = {}

    def push(row: int) -> None:
        if row:
            buckets.setdefault(((row & -row).bit_length() - 1) // W,
                               []).append(row)

    for row in packed:
        push(row)
    H: list[int] = []
    pivots: list[tuple[int, int, int]] = []
    for col in range(width if stop is None else min(width, stop)):
        here = buckets.pop(col, None)
        if here is None:
            continue
        shift = col * W
        piv = here[0]
        a = piv >> shift & mask
        for r in here[1:]:
            b = r >> shift & mask
            g, s, t = _xgcd(a, b)
            push(reduce(b // g * piv + (big - a // g) * r))
            # s * piv + t * r is r itself when (s, t) = (0, 1) (b divides
            # a, as in most steps) and piv itself when (s, t) = (1, 0).
            if (s, t) == (0, 1):
                piv = r
            elif (s, t) != (1, 0):
                piv = reduce(s % big * piv + t % big * r)
            a = g
        u = _unit_for(a, big)
        piv = reduce(u * piv)
        d = u * a % big
        H.append(piv)
        pivots.append((len(H) - 1, col, d))
        # Howell closure: the annihilator (big/d) * piv is a pending row;
        # its entry at col is big, which reduces to zero.
        push(reduce(big // d * piv))
    if stop is None:
        return H, pivots
    return H, pivots, [row for c in sorted(buckets) for row in buckets[c]]


class ModSolver:
    """Solves sum_j x_j * columns[j] = b (mod moduli) via one Howell form.

    Each column is the vector that the unknown x_j multiplies, one entry
    per modulus, lifted to the lcm modulus by the factor lcm/moduli[i]; or
    one int, its lifted residues already packed in lanes 0..m-1 of
    _Lanes(lcm) (StabilizerGroup packs its generators from their sparse
    exponents). Row j of [M | I] is packed column j with lane m + j set to
    1, so the rows span {(x M, x) : x in Z_lcm^cols} and their Howell form
    answers solve, kernel and image-size queries mod lcm. Construction
    eliminates only the M-block columns, which is all that solve and
    image_size read; the rows then pending vanish on the M block, and
    their packed identity parts (kernel_rows) generate the kernel. Their
    own Howell form is built on the first call that reads it
    (kernel_basis). Nothing is unpacked on the way: solve_packed
    takes and returns packed rows; solve and kernel_basis read them.
    """

    def __init__(self, columns: Sequence[Sequence[int] | int],
                 moduli: Sequence[int]):
        self.moduli = [int(m) for m in moduli]
        self.big = big = lcm(*self.moduli) if self.moduli else 1
        m, n = len(self.moduli), len(columns)
        self._m, self._n = m, n
        self._lanes = lanes = _Lanes(big)
        self._reduce = lanes.reducer(m + n)
        self._bigs = big * lanes.ones(n)  # minuend of the lane-wise negation
        self._scales = (None if all(mod == big for mod in self.moduli)
                        else [big // mod for mod in self.moduli])
        one, W = 1 % big, lanes.width
        rows = [(col if isinstance(col, int) else self._lift(col))
                | one << (m + j) * W for j, col in enumerate(columns)]
        self._H, self._pivots, pending = howell_form(
            PackedRows(rows, big, m + n), big, stop=m)
        self._pending = [row >> m * W for row in pending]
        # one Howell row per pivot column
        self._pivot_at = {col: (self._H[idx], d)
                          for idx, col, d in self._pivots}

    def _lift(self, b: Sequence[int]) -> int:
        """b's entries lifted to Z_big, packed (a column or a target)."""
        if len(b) != self._m:
            raise ValueError("columns and targets need one entry per modulus")
        scales = self._scales
        return self._lanes.pack(b if scales is None else
                                [s * int(v) for s, v in zip(scales, b)])

    def solve(self, b: Sequence[int]) -> list[int] | None:
        x = self.solve_packed(self._lift(b))
        return None if x is None else self._lanes.read(x, self._n)

    def solve_packed(self, w: int) -> int | None:
        """solve for a packed target (lifted residues in lanes 0..m-1, as
        _lift gives): x packed in lanes 0..n-1, residues mod big."""
        big, m, lanes = self.big, self._m, self._lanes
        W, mask, reduce = lanes.width, lanes.mask, self._reduce
        # w = (res, -coeff): subtracting q * row clears res at the pivot and
        # adds q to the combination of the row's identity-block half. Rows
        # vanish before their pivot, so the lowest nonzero lane only moves
        # right; in the M block it must sit on a pivot divisible by d.
        while w:
            col = ((w & -w).bit_length() - 1) // W
            if col >= m:
                break
            hit = self._pivot_at.get(col)
            if hit is None:
                return None
            row, d = hit
            q, r = divmod(w >> col * W & mask, d)
            if r:
                return None
            w = reduce(w + (big - q) * row)
        # each lane big - c lies in [1, big]
        return reduce(self._bigs - (w >> m * W))

    @cached_property
    def _kernel_form(self) -> tuple:
        """Howell form of the pending identity parts: by the Howell
        property, the identity-block rows and pivots of one uninterrupted
        elimination, shifted back by the M-block width."""
        return howell_form(PackedRows(self._pending, self.big, self._n),
                           self.big)

    def kernel_rows(self) -> list[int]:
        """The packed identity parts of the rows pending after the M-block
        columns: with big * e_i per column i they generate the lattice
        {x in Z^cols : sum x_j columns[j] = 0 mod moduli} (Howell
        property). They are not reduced among themselves."""
        return list(self._pending)

    def kernel_basis(self) -> list[list[int]]:
        """Generators of the same lattice as kernel_rows, read off the
        kernel's Howell form: its rows, then big * e_i for each column i,
        so the integer kernel (not just its mod big reduction) is
        generated."""
        n, read = self._n, self._lanes.read
        basis = [read(row, n) for row in self._kernel_form[0]]
        for i in range(n):
            basis.append([0] * n)
            basis[-1][i] = self.big
        return basis

    def image_size(self) -> int:
        """|{sum x_j columns[j] mod moduli}| as a subgroup of
        prod Z_moduli (lifted)."""
        size = 1
        for _, _, d in self._pivots:
            size *= self.big // d
        return size
