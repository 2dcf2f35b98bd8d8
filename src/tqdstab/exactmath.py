"""Exact integer and rational-mod-1 linear algebra.

Provides:
- Rational01: reduced rationals taken modulo 1 (phase exponents).
- IntMatrix: immutable arbitrary-precision integer matrices.
- det_adjugate: determinant and integer adjugate by the one rational
  Gauss-Jordan pass (determinants, unimodular inverses, K-matrix statistics).
- smith_normal_form: U*A*V = S with unimodular U, V and divisibility chain.
- howell_form / ModSolver: Howell form over Z_N; solves, kernels, image sizes.
  Input rows are dense integer sequences; Howell rows are sparse dicts
  {column: nonzero residue}, so elimination and every later read touch
  only nonzero entries.
- solve_linear_mod / kernel_mod / least_solution_mod: linear systems with
  per-row moduli.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


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
    """

    numerator: int
    denominator: int

    def __init__(self, numerator: int | Fraction = 0, denominator: int = 1):
        if isinstance(numerator, Fraction):
            frac = numerator
            if denominator != 1:
                raise ValueError("pass a Fraction alone or two integers")
        else:
            if denominator == 0:
                raise ZeroDivisionError("zero denominator")
            frac = Fraction(numerator, denominator)
        frac = frac - (frac.numerator // frac.denominator)  # reduce mod 1
        object.__setattr__(self, "numerator", frac.numerator)
        object.__setattr__(self, "denominator", frac.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __add__(self, other: "Rational01 | int") -> "Rational01":
        if isinstance(other, int):
            return self
        return Rational01(self.fraction + other.fraction)

    def __sub__(self, other: "Rational01 | int") -> "Rational01":
        if isinstance(other, int):
            return self
        return Rational01(self.fraction - other.fraction)

    def __neg__(self) -> "Rational01":
        return Rational01(-self.fraction)

    def __mul__(self, k: int) -> "Rational01":
        return Rational01(self.fraction * k)

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


RAT0 = Rational01(0, 1)


def rat_sum(values: Iterable[Rational01]) -> Rational01:
    total = Fraction(0)
    for v in values:
        total += v.fraction
    return Rational01(total)


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


def cokernel_orders(A: IntMatrix) -> list[int]:
    """Invariant factors (> 1 entries, with 0 for free parts) of Z^rows / col-space(A).

    Columns of A are relators on Z^rows. Returns the orders of the cyclic
    factors of the quotient; 0 denotes an infinite (free) factor.
    """
    diag = invariant_factors(A)
    orders = list(diag) + [0] * (A.rows - len(diag))
    return [d for d in orders if d != 1]


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
    """(det A, adj A) with adj A * A = det A * I, by Gauss-Jordan over
    Fraction on [A | I]; adj A = det A * A^{-1} is None when det A = 0."""
    if A.rows != A.cols:
        raise ValueError("not square")
    n = A.rows
    a = [[Fraction(x) for x in A.row(i)]
         + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        inv = a[col][col]
        det *= inv
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    adj = [[det * x for x in row[n:]] for row in a]
    if det.denominator != 1 or any(x.denominator != 1
                                   for row in adj for x in row):
        raise IntegralityError("non-integral determinant or adjugate")
    return det.numerator, IntMatrix([[x.numerator for x in row]
                                     for row in adj], cols=n)


def unimodular_inverse(U: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (integer entries)."""
    det, adj = det_adjugate(U)
    if adj is None:
        raise IntegralityError("singular matrix has no inverse")
    if det not in (1, -1):
        raise IntegralityError("matrix is not unimodular: its inverse "
                               "has non-integer entries")
    return adj if det == 1 else -adj


def _lift(A: IntMatrix, b: Sequence[int] | None, moduli: Sequence[int]):
    if len(moduli) != A.rows:
        raise ValueError("moduli length must equal number of rows")
    big = lcm(*moduli) if moduli else 1
    rows = []
    lifted_b = []
    for i in range(A.rows):
        scale = big // moduli[i]
        rows.append([scale * x for x in A.row(i)])
        if b is not None:
            lifted_b.append(scale * b[i])
    return IntMatrix(rows, cols=A.cols), lifted_b, big


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
    """A unit u mod N with u*a = gcd(a, N) (mod N). N is small here."""
    a %= N
    d = gcd(a, N)
    for u in range(1, N + 1):
        if gcd(u, N) == 1 and (u * a) % N == d % N:
            return u
    raise ArithmeticError(f"no unit found for {a} mod {N}")


def howell_form(rows: Sequence[Sequence[int]],
                big: int) -> tuple[list[dict[int, int]],
                                   list[tuple[int, int, int]]]:
    """Howell form of the Z_big row span of `rows`.

    `rows` are dense sequences of integers of one width (any residues).
    Returns (H, pivots). Each H row is sparse: a dict {column: residue}
    holding exactly its nonzero entries mod big. pivots is a staircase list
    of (row_index, col, value); each pivot value divides big. The Howell
    property guarantees that any span element with zeros in its first k
    coordinates is a Z_big combination of the H rows whose pivots lie past
    column k, so greedy left-to-right reduction against H is a complete
    membership test. All arithmetic stays mod big, so entries never grow.

    Pending rows wait in buckets keyed by their leading column, each in
    creation order; at column c the bucket of c is merged into its first
    row by xgcd steps, and the other rows, once cleared at c, move on to
    the bucket of their new leading column. A bucket holds the rows a scan
    of every pending row would find at c, in the same order, so the
    pivots and rows are those of the dense elimination.
    """
    width = len(rows[0]) if rows else 0
    buckets: dict[int, list[dict[int, int]]] = {}

    def push(row: dict[int, int]) -> None:
        if row:
            buckets.setdefault(min(row), []).append(row)

    for row in rows:
        push({j: v for j, x in enumerate(row) if (v := x % big)})
    H: list[dict[int, int]] = []
    pivots: list[tuple[int, int, int]] = []
    for col in range(width):
        here = buckets.pop(col, None)
        if here is None:
            continue
        piv = here[0]
        for r in here[1:]:
            a, b = piv[col], r[col]
            g, s, t = _xgcd(a, b)
            ag, bg = a // g, b // g
            keys = piv.keys() | r.keys()
            push({j: v for j in keys
                  if (v := (bg * piv.get(j, 0) - ag * r.get(j, 0)) % big)})
            # s * piv + t * r is r itself when (s, t) = (0, 1) (b divides
            # a, as in most steps) and piv itself when (s, t) = (1, 0).
            if (s, t) == (0, 1):
                piv = r
            elif (s, t) != (1, 0):
                piv = {j: v for j in keys
                       if (v := (s * piv.get(j, 0) + t * r.get(j, 0)) % big)}
        u = _unit_for(piv[col], big)
        piv = {j: (u * x) % big for j, x in piv.items()}
        d = piv[col]
        H.append(piv)
        pivots.append((len(H) - 1, col, d))
        # Howell closure: the annihilator (big/d) * piv is a pending row.
        f = big // d
        push({j: v for j, x in piv.items() if j != col and (v := f * x % big)})
    return H, pivots


class ModSolver:
    """Repeated solves of A x = b (mod per-row moduli) via one Howell form.

    Each row i is lifted to the lcm modulus by the factor lcm/moduli[i].
    Writing M for the lifted transpose, the rows of [M | I] span
    {(x M, x) : x in Z_lcm^cols}; the Howell form of that span answers
    solve, kernel, and image-size queries with all arithmetic mod lcm.
    """

    def __init__(self, A: IntMatrix, moduli: Sequence[int]):
        self.A = A
        self.moduli = [int(m) for m in moduli]
        lifted, _, self.big = _lift(A, None, self.moduli)
        m, n = A.rows, A.cols
        self._m, self._n = m, n
        rows = [[lifted[i, j] for i in range(m)]
                + [1 if k == j else 0 for k in range(n)]
                for j in range(n)]
        self._H, self._pivots = howell_form(rows, self.big)

    def solve(self, b: Sequence[int]) -> list[int] | None:
        if len(b) != self._m:
            raise ValueError("b length must equal number of rows")
        big, m = self.big, self._m
        # w = (res, -coeff): subtracting q * row clears res at the pivot and
        # adds q to the combination of the row's identity-block half.
        w = [((big // mod) * int(v)) % big
             for mod, v in zip(self.moduli, b)] + [0] * self._n
        for idx, col, d in self._pivots:
            if col >= m:
                break
            r = w[col]
            if not r:
                continue
            if r % d:
                return None
            q = r // d
            for j, v in self._H[idx].items():
                w[j] = (w[j] - q * v) % big
        if any(w[:m]):
            return None
        return [-x % big for x in w[m:]]

    def kernel_basis(self) -> list[list[int]]:
        """Generators of the lattice {x in Z^cols : A x = 0 mod moduli}.

        Includes big * e_i vectors so the integer lattice (not just its mod
        big reduction) is generated.
        """
        m, n, big = self._m, self._n, self.big
        basis = [[self._H[idx].get(j, 0) for j in range(m, m + n)]
                 for idx, col, _ in self._pivots if col >= m]
        basis.extend([big if j == i else 0 for j in range(n)]
                     for i in range(n))
        return basis

    def image_size(self) -> int:
        """|{A x mod moduli}| as a subgroup of prod Z_moduli (lifted)."""
        size = 1
        for _, col, d in self._pivots:
            if col < self._m:
                size *= self.big // d
        return size


def solve_linear_mod(A: IntMatrix, b: Sequence[int],
                     moduli: Sequence[int]) -> list[int] | None:
    """Solve A x = b componentwise mod moduli; None if no solution."""
    return ModSolver(A, moduli).solve(b)


def kernel_mod(A: IntMatrix, moduli: Sequence[int]) -> list[list[int]]:
    """Integer vectors generating {x in Z^cols : A x = 0 mod moduli}."""
    return ModSolver(A, moduli).kernel_basis()


def least_solution_mod(A: IntMatrix, b: Sequence[int],
                       moduli: Sequence[int]) -> list[int] | None:
    """The lexicographically smallest solution of A x = b mod moduli with
    entries in [0, lcm(moduli)); None if there is none.

    Every solution is one solution plus a kernel vector. Reduce it left to
    right against the Howell form of the kernel: at a pivot (col, d) the
    entry can move only by multiples of d, so it becomes its residue mod d;
    by the Howell property a column without a pivot cannot move at all.
    """
    solver = ModSolver(A, moduli)
    sol = solver.solve(b)
    if sol is None:
        return None
    big = solver.big
    H, pivots = howell_form(solver.kernel_basis(), big)
    for idx, col, d in pivots:
        q = sol[col] // d
        if q:
            for j, v in H[idx].items():
                sol[j] = (sol[j] - q * v) % big
    return sol
