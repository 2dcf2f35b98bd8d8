"""Tests for the exact integer / rational-mod-1 linear algebra layer."""

import fractions
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (columns_of, dense_howell_form, kernel_generators,
                     pending_vectors, scan_unit_for, solve_by_dense_rows,
                     transposed_solver_rows, walk_least_solution)
from tqdstab import exactmath
from tqdstab.exactmath import (IntegralityError, IntMatrix, ModSolver,
                               Rational01, det_adjugate,
                               howell_form, integer_kernel, invariant_factors,
                               rat_sum, smith_normal_form, unimodular_inverse,
                               unpack_row)
from tqdstab.kmatrix import SingularMatrixError, k_inverse
from tqdstab.lattice import TqdParams, build_ds, build_tqd
from tqdstab.stabilizer import StabilizerGroup

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Rational01
# ---------------------------------------------------------------------------


class TestRational01:
    def test_reduced_and_mod_one(self):
        r = Rational01(5, 4)
        assert r.fraction == Fraction(1, 4)
        assert Rational01(-1, 4).fraction == Fraction(3, 4)
        assert Rational01(8, 4) == Rational01(0)

    def test_arithmetic(self):
        assert Rational01(3, 4) + Rational01(1, 2) == Rational01(1, 4)
        assert Rational01(1, 4) - Rational01(1, 2) == Rational01(3, 4)
        assert -Rational01(1, 3) == Rational01(2, 3)
        assert Rational01(1, 6) * 4 == Rational01(2, 3)
        assert 4 * Rational01(1, 6) == Rational01(2, 3)

    def test_string_round_trip(self):
        assert str(Rational01(1, 2)) == "1/2"
        assert Rational01.from_string("3/4") == Rational01(3, 4)
        assert Rational01.from_string("0") == Rational01(0)

    def test_hash_equality_canonical(self):
        assert hash(Rational01(2, 8)) == hash(Rational01(1, 4))
        assert Rational01(2, 8) == Rational01(1, 4)

    @given(st.integers(-50, 50), st.integers(1, 30),
           st.integers(-50, 50), st.integers(1, 30))
    def test_add_matches_fraction_mod_one(self, p, q, r, s):
        total = Rational01(p, q) + Rational01(r, s)
        expect = (Fraction(p, q) + Fraction(r, s)) % 1
        assert total.fraction == expect

    def test_rat_sum(self):
        vals = [Rational01(1, 3), Rational01(1, 3), Rational01(1, 2)]
        assert rat_sum(vals) == Rational01(1, 6)


def _pair(frac: Fraction) -> tuple[int, int]:
    frac %= 1
    return frac.numerator, frac.denominator


WIDE = st.integers(-10 ** 40, 10 ** 40)
NUMERATORS = st.one_of(st.just(0), st.integers(-60, 60), WIDE)
DENOMINATORS = st.one_of(st.integers(-60, 60), WIDE).filter(bool)
RATIONALS = st.tuples(NUMERATORS, DENOMINATORS)


class TestRational01AgainstFraction:
    """Integer Rational01 against a Fraction-mod-1 oracle."""

    @given(NUMERATORS, DENOMINATORS)
    def test_construction_from_integers(self, n, d):
        r = Rational01(n, d)
        assert (r.numerator, r.denominator) == _pair(Fraction(n, d))
        assert type(r.numerator) is int and type(r.denominator) is int

    @given(st.fractions())
    def test_construction_from_fraction(self, frac):
        r = Rational01(frac)
        assert (r.numerator, r.denominator) == _pair(frac)
        assert r.fraction == frac % 1

    @given(RATIONALS, RATIONALS, st.one_of(st.integers(-60, 60), WIDE))
    def test_operations(self, a, b, k):
        fa, fb = Fraction(*a), Fraction(*b)
        ra, rb = Rational01(*a), Rational01(*b)
        assert ra + rb == Rational01(fa + fb)
        assert (ra + rb).fraction == (fa + fb) % 1
        assert (ra - rb).fraction == (fa - fb) % 1
        assert (-ra).fraction == -fa % 1
        assert (ra * k).fraction == (fa * k) % 1
        assert (k * ra).fraction == (fa * k) % 1

    @given(st.lists(RATIONALS, max_size=8))
    def test_rat_sum(self, terms):
        total = rat_sum(Rational01(*t) for t in terms)
        assert total.fraction == sum(Fraction(*t) for t in terms) % 1

    def test_zero_denominator_and_fraction_with_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Rational01(1, 0)
        with pytest.raises(ZeroDivisionError):
            Rational01(0, 0)
        with pytest.raises(ValueError):
            Rational01(Fraction(1, 2), 3)

    def test_integer_paths_build_no_fraction(self, monkeypatch):
        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("Fraction built on an integer path")

        # exactmath imports fractions only inside Rational01.fraction
        assert not hasattr(exactmath, "Fraction")
        monkeypatch.setattr(fractions, "Fraction", NoFraction)
        a, b = Rational01(-7, 12), Rational01(5, -18)
        assert (a + b, a - b, -a, a * 5, 5 * a) == (
            Rational01(5, 36), Rational01(25, 36), Rational01(7, 12),
            Rational01(1, 12), Rational01(1, 12))
        assert rat_sum([a, b, a]) == Rational01(5, 9)


# ---------------------------------------------------------------------------
# IntMatrix
# ---------------------------------------------------------------------------


class TestIntMatrix:
    def test_shape_and_indexing(self):
        A = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert (A.rows, A.cols) == (2, 3)
        assert A[1, 2] == 6
        assert A.row(0) == (1, 2, 3)

    def test_matmul_and_identity(self):
        A = IntMatrix([[1, 2], [3, 4]])
        assert (A @ IntMatrix.identity(2)).tolist() == A.tolist()
        B = IntMatrix([[0, 1], [1, 0]])
        assert (A @ B).tolist() == [[2, 1], [4, 3]]

    def test_determinant_and_unimodular(self):
        assert IntMatrix([[2, 1], [1, 1]]).determinant() == 1
        assert IntMatrix([[2, 1], [1, 1]]).is_unimodular()
        assert not IntMatrix([[2, 0], [0, 2]]).is_unimodular()

    def test_unimodular_inverse(self):
        U = IntMatrix([[2, 1], [1, 1]])
        V = unimodular_inverse(U)
        assert (U @ V).tolist() == IntMatrix.identity(2).tolist()

    @pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 1], [1, 1]],
                                      [[0]]])
    def test_inverse_of_non_unimodular_raises(self, rows):
        with pytest.raises(IntegralityError):
            unimodular_inverse(IntMatrix(rows))

    def test_non_unimodular_raises_under_optimize(self):
        # The integrality check must not be an assert: run it under -O.
        script = (
            "from tqdstab.exactmath import (IntegralityError, IntMatrix, "
            "unimodular_inverse)\n"
            "assert False, 'asserts must be stripped under -O'\n"
            "try:\n"
            "    unimodular_inverse(IntMatrix([[2, 1], [0, 1]]))\n"
            "except IntegralityError:\n"
            "    print('rejected')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "rejected"

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])


# ---------------------------------------------------------------------------
# Determinant and adjugate
# ---------------------------------------------------------------------------


def cofactor_det(rows):
    """Determinant by Laplace expansion along the first row (test oracle)."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j]
               * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


square_rows = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n))


@st.composite
def singular_symmetric(draw):
    """B B^T for an n x (n-1) integer B: symmetric with rank < n."""
    n = draw(st.integers(1, 4))
    B = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n - 1,
                               max_size=n - 1), min_size=n, max_size=n))
    B = IntMatrix(B, cols=n - 1)
    return B @ B.transpose()


class TestDetAdjugate:
    @given(square_rows)
    @settings(max_examples=200, deadline=None)
    def test_adjugate_identity_and_cofactor_determinant(self, rows):
        n = len(rows)
        A = IntMatrix(rows, cols=n)
        det, adj = det_adjugate(A)
        assert det == cofactor_det(rows) == A.determinant()
        if det == 0:
            assert adj is None
        else:
            scaled = IntMatrix.diagonal([det] * n)
            assert adj @ A == scaled and A @ adj == scaled

    @given(singular_symmetric())
    @settings(max_examples=50, deadline=None)
    def test_singular_matrix_everywhere(self, K):
        assert cofactor_det(K.tolist()) == 0
        assert K.determinant() == 0
        with pytest.raises(SingularMatrixError):
            k_inverse(K)
        with pytest.raises(IntegralityError):
            unimodular_inverse(K)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_adjugate(IntMatrix([[1, 2]]))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _random_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def _check_snf(A):
    snf = smith_normal_form(A)
    assert snf.U.is_unimodular()
    assert snf.V.is_unimodular()
    S = snf.U @ A @ snf.V
    assert S.tolist() == snf.S.tolist()
    diag = snf.diagonal()
    for i in range(min(snf.S.rows, snf.S.cols)):
        for j in range(min(snf.S.rows, snf.S.cols)):
            if i != j:
                assert snf.S[i, j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(2))
        assert snf.diagonal() == [1, 1]

    def test_z9_presentation(self):
        # relations 3b = 0-ish twisted: cokernel is a single Z9 factor
        A = IntMatrix([[0, 3], [3, -2]])
        snf = smith_normal_form(A)
        assert snf.diagonal() == [1, 9]

    def test_z2_z2_presentation(self):
        A = IntMatrix([[0, 2], [2, -2]])
        assert smith_normal_form(A).diagonal() == [2, 2]

    def test_empty(self):
        snf = smith_normal_form(IntMatrix([], rows=0, cols=0))
        assert snf.diagonal() == []

    def test_random_reconstruction(self):
        rng = random.Random(11)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            _check_snf(_random_matrix(rng, rows, cols))

    @given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                    min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_property_reconstruction(self, entries):
        _check_snf(IntMatrix(entries))

    def test_invariant_factors_and_cokernel(self):
        A = IntMatrix([[1, 0], [0, 6]])
        assert invariant_factors(A) == [1, 6]


# ---------------------------------------------------------------------------
# Modular solving
# ---------------------------------------------------------------------------


def _columns(A):
    """The columns of an IntMatrix, the vectors ModSolver combines."""
    return [[A[i, j] for i in range(A.rows)] for j in range(A.cols)]


class TestSolveLinearMod:
    """ModSolver(columns, moduli).solve(b): x with sum_j x_j * columns[j]
    = b mod moduli."""

    def test_trivial_solvable(self):
        x = ModSolver([[2]], [4]).solve([0])
        assert x is not None
        assert (2 * x[0]) % 4 == 0

    def test_parity_obstruction(self):
        assert ModSolver([[2]], [4]).solve([1]) is None

    def test_diagonal_mod9(self):
        x = ModSolver([[3, 0], [0, 3]], [9, 9]).solve([3, 6])
        assert x is not None
        assert (3 * x[0]) % 9 == 3 and (3 * x[1]) % 9 == 6

    def test_mixed_moduli(self):
        # x_0 (1, 0) + x_1 (1, 2) = (1, 2) mod (2, 6)
        x = ModSolver([[1, 0], [1, 2]], [2, 6]).solve([1, 2])
        assert x is not None
        assert (x[0] + x[1]) % 2 == 1 and (2 * x[1]) % 6 == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ModSolver([[1], [0]], [2]).solve([1, 2])
        with pytest.raises(ValueError):
            ModSolver([[1, 2], [0]], [2, 2])

    def test_solution_verification_random(self):
        rng = random.Random(5)
        moduli_pool = [2, 3, 4, 6, 8, 9]
        for _ in range(80):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            A = _random_matrix(rng, rows, cols, bound=5)
            moduli = [rng.choice(moduli_pool) for _ in range(rows)]
            b = [rng.randrange(m) for m in moduli]
            x = ModSolver(_columns(A), moduli).solve(b)
            if x is not None:
                for i in range(rows):
                    total = sum(A[i, j] * x[j] for j in range(cols))
                    assert total % moduli[i] == b[i] % moduli[i]
            else:
                # exhaustive certificate on small instances
                space = 1
                for m in moduli:
                    space *= m
                if space <= 10 ** 4 and cols <= 3:
                    bound = max(moduli)
                    found = False
                    for xi in range(bound):
                        for xj in range(bound if cols > 1 else 1):
                            for xk in range(bound if cols > 2 else 1):
                                vec = [xi, xj, xk][:cols]
                                if all(sum(A[i, j] * vec[j]
                                           for j in range(cols))
                                       % moduli[i] == b[i] % moduli[i]
                                       for i in range(rows)):
                                    found = True
                    assert not found


class TestKernels:
    def test_integer_kernel(self):
        A = IntMatrix([[1, 2, 3]])
        basis = integer_kernel(A)
        assert len(basis) == 2
        for vec in basis:
            assert sum(a * v for a, v in zip([1, 2, 3], vec)) == 0

    def test_kernel_mod(self):
        vecs = ModSolver([[2]], [4]).kernel_basis()
        assert any(v[0] % 4 == 2 for v in vecs)
        for v in vecs:
            assert (2 * v[0]) % 4 == 0

    def test_mod_solver_consistency(self):
        solver = ModSolver([[2, 0], [0, 3]], [4, 9])
        x = solver.solve([2, 3])
        assert x is not None
        assert (2 * x[0]) % 4 == 2 and (3 * x[1]) % 9 == 3
        for vec in solver.kernel_basis():
            assert (2 * vec[0]) % 4 == 0 and (3 * vec[1]) % 9 == 0


# ---------------------------------------------------------------------------
# Solver properties against brute-force enumeration
# ---------------------------------------------------------------------------


@st.composite
def mod_systems(draw, max_rows=3, max_cols=3):
    """(columns, b, moduli) for sum_j x_j * columns[j] = b mod moduli, with
    at most 3 moduli and columns (by default) and lcm <= 12. Right-hand
    sides are often zero, so solves meet zero residues in pivot columns."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    moduli = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=rows,
                           max_size=rows))
    columns = [[draw(st.integers(-6, 6)) for _ in range(rows)]
               for _ in range(cols)]
    if draw(st.booleans()):
        # in the image, then some entries zeroed
        x0 = [draw(st.integers(0, 11)) for _ in range(cols)]
        b = [0 if draw(st.booleans()) else v
             for v in _combine(columns, x0, rows)]
    else:
        b = [draw(st.one_of(st.just(0), st.integers(-12, 12)))
             for _ in range(rows)]
    return columns, b, moduli


def _combine(columns, x, rows):
    """sum_j x_j * columns[j], unreduced (columns of length rows)."""
    return [sum(xj * col[i] for xj, col in zip(x, columns))
            for i in range(rows)]


def _satisfies(columns, x, b, moduli):
    return all((v - bi) % m == 0 for v, bi, m in
               zip(_combine(columns, x, len(moduli)), b, moduli))


def _all_solutions(columns, b, moduli):
    """Every solution with entries in [0, lcm(moduli)), in lexicographic
    order."""
    big = lcm(*moduli)
    return [list(x) for x in iproduct(range(big), repeat=len(columns))
            if _satisfies(columns, x, b, moduli)]


def _reduces_to_zero(vec, H, pivots, big):
    """Whether vec lies in the Z_big span of Howell rows H: greedy left to
    right reduction, complete by the Howell property."""
    w = [x % big for x in vec]
    for idx, col, d in pivots:
        if w[col] % d:
            return False
        q = w[col] // d
        for j, v in enumerate(unpack_row(H[idx], big, len(w))):
            w[j] = (w[j] - q * v) % big
    return not any(w)


class TestSolverProperties:
    @given(mod_systems())
    @settings(max_examples=150, deadline=None)
    def test_solve_agrees_with_enumeration(self, system):
        columns, b, moduli = system
        x = ModSolver(columns, moduli).solve(b)
        if x is None:
            assert _all_solutions(columns, b, moduli) == []
        else:
            assert _satisfies(columns, x, b, moduli)

    @given(mod_systems())
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis_spans_the_kernel(self, system):
        columns, _, moduli = system
        big = lcm(*moduli)
        basis = ModSolver(columns, moduli).kernel_basis()
        zero = [0] * len(moduli)
        assert all(_satisfies(columns, vec, zero, moduli) for vec in basis)
        span = {(0,) * len(columns)}
        frontier = list(span)
        while frontier:
            base = frontier.pop()
            for vec in basis:
                nxt = tuple((u + v) % big for u, v in zip(base, vec))
                if nxt not in span:
                    span.add(nxt)
                    frontier.append(nxt)
        assert sorted(span) == [tuple(x) for x in
                                _all_solutions(columns, zero, moduli)]

    @given(mod_systems())
    @settings(max_examples=100, deadline=None)
    def test_image_size_counts_the_image(self, system):
        columns, _, moduli = system
        big = lcm(*moduli)
        image = {tuple(v % m for v, m in
                       zip(_combine(columns, x, len(moduli)), moduli))
                 for x in iproduct(range(big), repeat=len(columns))}
        assert ModSolver(columns, moduli).image_size() == len(image)

    @given(mod_systems(max_rows=4, max_cols=6))
    @settings(max_examples=150, deadline=None)
    def test_kernel_views_agree_with_smith_form(self, system):
        # kernel_generators (oracle: the kernel rows, pending after the M
        # block, read dense) and
        # kernel_basis (the kernel's own Howell form) against Smith normal
        # form of the lifted matrix whose columns are the inputs.
        columns, b, moduli = system
        big = lcm(*moduli)
        solver = ModSolver(columns, moduli)
        lifted = IntMatrix([[(big // mod) * col[i] for col in columns]
                            for i, mod in enumerate(moduli)],
                           cols=len(columns))
        diag = smith_normal_form(lifted).diagonal()
        diag += [0] * (len(moduli) - len(diag))
        image = 1
        for d in diag:
            image *= big // gcd(d, big)
        assert solver.image_size() == image
        before = solver.solve(b)
        generators = kernel_generators(solver)
        zero = [0] * len(moduli)
        assert all(_satisfies(columns, vec, zero, moduli)
                   for vec in generators)
        basis = solver.kernel_basis()
        assert solver.solve(b) == before
        assert solver.image_size() == image
        forms = [howell_form(vectors, big) for vectors in (generators, basis)]
        for vectors, (H, pivots) in zip((basis, generators), forms):
            assert all(_reduces_to_zero(vec, H, pivots, big)
                       for vec in vectors)
        # |Z_big^cols / K| = |image| for both views
        for _, pivots in forms:
            size = 1
            for _, _, d in pivots:
                size *= big // d
            assert size * image == big ** len(columns)

    @given(mod_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_columns_of_transposes_the_vectors(self, system, rng):
        # the kernel rows transposed into lanes mod big and mod 2 * big, as
        # the stabilizer module reads combination coefficients mod 2D, equal
        # the columns packed one by one from the dense vectors (oracle)
        columns, _, moduli = system
        solver = ModSolver(columns, moduli)
        vectors = pending_vectors(solver)
        for big in (lcm(*moduli), 2 * lcm(*moduli)):
            lanes = exactmath._Lanes(big)
            n, ones = len(vectors), lanes.ones(len(vectors))
            packed = lanes.transpose(solver.kernel_rows(), len(columns),
                                     solver._lanes)
            assert packed == columns_of(lanes, vectors, len(columns))
            assert len(packed) == len(columns)
            for j, col in enumerate(packed):
                assert lanes.read(col, n) == [vec[j] % big for vec in vectors]
                assert lanes.read(col & ones, n) == [vec[j] % big % 2
                                                     for vec in vectors]
            weights = [rng.randrange(big) for _ in packed]
            acc, reduce = 0, lanes.reducer(n)
            for w, col in zip(weights, packed):
                acc = reduce(acc + w * col)
            assert lanes.read(acc, n) == [
                sum(w * v for w, v in zip(weights, vec)) % big
                for vec in vectors]
            assert lanes.transpose([], len(columns), solver._lanes) == [
                0] * len(columns)

    @given(mod_systems())
    @settings(max_examples=200, deadline=None)
    def test_packed_solve_matches_dense_route(self, system):
        # The packed target and packed answer against solving on dense
        # lists (oracle), on targets in the image and off it; packed input
        # columns give the same Howell rows as dense ones.
        columns, b, moduli = system
        big = lcm(*moduli)
        solver = ModSolver(columns, moduli)
        expected = solve_by_dense_rows(solver, b)
        x = solver.solve_packed(solver._lift(b))
        assert (x is None) == (expected is None)
        if x is not None:
            assert solver._lanes.read(x, len(columns)) == expected
            assert x >> len(columns) * solver._lanes.width == 0
        assert solver.solve(b) == expected
        assert (expected is None) == (_all_solutions(columns, b, moduli)
                                      == [])
        packed = ModSolver([solver._lift(col) for col in columns], moduli)
        assert (packed._H, packed._pivots, packed.kernel_rows()) == (
            solver._H, solver._pivots, solver.kernel_rows())
        assert packed.solve(b) == expected

    @given(mod_systems())
    @settings(max_examples=150, deadline=None)
    def test_walk_least_solution_is_the_enumerated_least(self, system):
        # the oracle behind the vertex-term phase tests in test_lattice.py
        columns, b, moduli = system
        solutions = _all_solutions(columns, b, moduli)
        assert walk_least_solution(columns, b, moduli) == (
            solutions[0] if solutions else None)


# ---------------------------------------------------------------------------
# Packed Howell rows against the dense oracle
# ---------------------------------------------------------------------------


@st.composite
def howell_systems(draw):
    """Dense rows over Z_big, big in {2, 4, 8, 12, 16}. Most rows are lifted
    from a modulus dividing big (mixed moduli, as ModSolver lifts them);
    others are all zero or multiples of big. The row list may be empty."""
    big = draw(st.sampled_from([2, 4, 8, 12, 16]))
    width = draw(st.integers(1, 7))
    divisors = [m for m in range(1, big + 1) if big % m == 0]
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["lifted", "lifted", "zero", "multiple"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "multiple":
            rows.append([big * draw(st.integers(-2, 2))
                         for _ in range(width)])
        else:
            mod = draw(st.sampled_from(divisors))
            rows.append([(big // mod) * draw(st.one_of(
                st.just(0), st.integers(-mod, 2 * mod)))
                for _ in range(width)])
    return rows, big


def _densified(H, big, width):
    return [unpack_row(row, big, width) for row in H]


def _assert_matches_dense_oracle(rows, big):
    width = len(rows[0]) if rows else 0
    H, pivots = howell_form(rows, big)
    dense_H, dense_pivots = dense_howell_form(rows, big)
    assert pivots == dense_pivots
    assert _densified(H, big, width) == dense_H
    # exactly the residues are stored: each row is the packing of its
    # dense copy, with no lane past the width and none left unreduced
    assert H == [exactmath._Lanes(big).pack(row) for row in dense_H]
    return H, pivots


def _record_howell_inputs(monkeypatch) -> list:
    """Make exactmath.howell_form record its (rows, big) arguments; keyword
    arguments pass through unrecorded."""
    calls = []
    original = exactmath.howell_form

    def recording(rows, big, **kwargs):
        calls.append((rows, big))
        return original(rows, big, **kwargs)

    monkeypatch.setattr(exactmath, "howell_form", recording)
    return calls


def test_unit_for_walks_to_the_scanned_unit():
    # The gcd(a, N) candidates hold the smallest unit the full scan finds,
    # so the Howell rows are unchanged.
    for N in range(1, 201):
        for a in range(-1, N + 1):
            assert exactmath._unit_for(a, N) == scan_unit_for(a, N), (a, N)


# Moduli with every lane width of each reduction: a power of two is
# reduced by one AND in 8, 16, 32 or 64-bit lanes or wider, any other
# modulus by a multiply-shift in 16, 32 or 64-bit lanes or wider.
POW2_LANE_MODULI = [2, 16, 256, 2 ** 16, 2 ** 40]
SHIFT_LANE_MODULI = [6, 12, 360, 3 * 2 ** 16, 2 ** 40 * 3 ** 5]
LANE_MODULI = POW2_LANE_MODULI + SHIFT_LANE_MODULI


def test_lane_moduli_cover_every_width():
    pow2 = [exactmath._Lanes(big).width for big in POW2_LANE_MODULI]
    shift = [exactmath._Lanes(big).width for big in SHIFT_LANE_MODULI]
    assert pow2[:4] == [8, 16, 32, 64] and pow2[4] > 64
    assert shift[:3] == [16, 32, 64] and min(shift[3:]) > 64


def test_power_of_two_lanes_are_half_width():
    # 2D for the paper's D = 2, 8 and 16: lanes that hold 2 * big**2 - 1,
    # with no room for a multiply-shift product
    assert [exactmath._Lanes(big).width for big in (4, 16, 32)] == [8, 16, 16]


@given(st.sampled_from([1, 3, 4, 8, 32] + LANE_MODULI), st.data())
@settings(max_examples=300, deadline=None)
def test_reducer_is_lanewise_mod(big, data):
    # lanes up to 2 * big**2 - 1, the bound every caller keeps, on both
    # reductions and every width; big = 1 is the trivial code's modulus
    lanes, top = exactmath._Lanes(big), 2 * big * big - 1
    assert top <= lanes.mask
    n = data.draw(st.integers(1, 6))
    values = data.draw(st.lists(st.one_of(st.just(top), st.integers(0, top)),
                                min_size=n, max_size=n))
    for lane_values in (values, [top] * n):
        x = sum(v << j * lanes.width for j, v in enumerate(lane_values))
        assert lanes.read(lanes.reducer(n)(x), n) == [
            v % big for v in lane_values]


# (solver modulus D, phase modulus 2D) pairs for the transpose: equal
# lane widths, 8 -> 16 bits (the Z_8 toric code), 32 -> 64 bits, and
# lanes wider than any memoryview code (192 -> 200 bits)
TRANSPOSE_MODULI = [(4, 8), (16, 32), (8, 16), (72, 144),
                    (2 ** 39 * 3 ** 5, 2 ** 40 * 3 ** 5)]


def test_transpose_moduli_cover_every_widening():
    widths = [(exactmath._Lanes(d).width, exactmath._Lanes(two_d).width)
              for d, two_d in TRANSPOSE_MODULI]
    assert widths[:4] == [(8, 8), (16, 16), (8, 16), (32, 64)]
    assert widths[4] == (192, 200)
    assert exactmath._Lanes(2 ** 40 * 3 ** 5)._code is None


@given(st.sampled_from(TRANSPOSE_MODULI), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_transpose_matches_columns_of(moduli, same, data):
    # packed rows of residues mod D, each with at most n nonzero lanes
    # (top lanes may be zero), transposed into lanes mod D or mod 2D,
    # against the columns packed one by one from the dense rows; no rows
    # gives n zero columns
    d, two_d = moduli
    src = exactmath._Lanes(d)
    dest = src if same else exactmath._Lanes(two_d)
    n = data.draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.just(d - 1), st.integers(0, d - 1))
    vectors = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 max_size=5))
    rows = [src.pack(vec) for vec in vectors]
    assert dest.transpose(rows, n, src) == columns_of(dest, vectors, n)
    if not vectors:
        assert dest.transpose(rows, n, src) == [0] * n


@st.composite
def lane_systems(draw):
    """Dense rows over Z_big for big in LANE_MODULI, entries lifted from a
    divisor of big (any sign, past big) or zero, and a stop column."""
    big = draw(st.sampled_from(LANE_MODULI))
    width = draw(st.integers(1, 6))
    divisors = [d for d in (1, 2, 3, 4, 6, 8, 12, 360, big) if big % d == 0]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        mod = draw(st.sampled_from(divisors))
        entry = st.one_of(st.just(0), st.integers(-2 * mod, 2 * mod))
        rows.append([(big // mod) * draw(entry) for _ in range(width)])
    return rows, big, width, draw(st.integers(0, width))


class TestLaneWidths:
    @given(lane_systems())
    @settings(max_examples=300, deadline=None)
    def test_every_lane_width_matches_dense_oracle(self, system):
        rows, big, width, stop = system
        if not rows:
            rows = [[0] * width]
        H, pivots = _assert_matches_dense_oracle(rows, big)
        # With stop: the prefix of the one-pass form, and the pending rows
        # continue it, shifted by stop columns.
        H_s, pivots_s, pending = howell_form(rows, big, stop=stop)
        n_s = sum(1 for _, col, _ in pivots if col < stop)
        assert (H_s, pivots_s) == (H[:n_s], pivots[:n_s])
        rest = [unpack_row(row, big, width) for row in pending]
        assert all(not any(row[:stop]) for row in rest)
        H_r, pivots_r = howell_form([row[stop:] for row in rest] or [[]],
                                    big)
        assert _densified(H_r, big, width - stop) == [
            row[stop:] for row in _densified(H[n_s:], big, width)]
        assert pivots_r == [(idx - n_s, col - stop, d)
                            for idx, col, d in pivots[n_s:]]

    @given(lane_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_solver_reads_every_lane_width(self, system, data):
        rows, big, width, _ = system
        columns = rows or [[0] * width]
        solver = ModSolver(columns, [big] * width)
        x = data.draw(st.lists(st.integers(0, big - 1), min_size=len(columns),
                               max_size=len(columns)))
        b = _combine(columns, x, width)
        zero = [0] * width
        sol = solver.solve(b)
        assert sol is not None and _satisfies(columns, sol, b, [big] * width)
        assert all(_satisfies(columns, vec, zero, [big] * width)
                   for vec in solver.kernel_basis())
        assert all(_satisfies(columns, vec, zero, [big] * width)
                   for vec in kernel_generators(solver))


class TestSparseHowell:
    @given(howell_systems())
    @settings(max_examples=300, deadline=None)
    def test_same_pivots_and_rows_as_dense_oracle(self, system):
        _assert_matches_dense_oracle(*system)

    def test_empty_and_zero_inputs(self):
        assert howell_form([], 4) == ([], [])
        assert howell_form([[0, 0, 0], [8, -16, 24]], 8) == ([], [])
        assert _assert_matches_dense_oracle([[0, 0], [12, 0]], 12) == (
            [], [])

    def test_annihilator_row_re_enters(self):
        # (2, 1) over Z_4: the pivot 2 at column 0 has annihilator 2 * (2, 1)
        # = (0, 2), which gives a second pivot.
        H, pivots = _assert_matches_dense_oracle([[2, 1]], 4)
        assert _densified(H, 4, 2) == [[2, 1], [0, 2]]
        assert pivots == [(0, 0, 2), (1, 1, 2)]

    @pytest.mark.parametrize("build", [
        lambda: build_ds(4, 4),
        lambda: build_tqd(TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]]), 3, 3),
    ], ids=["ds-4x4", "tqd22-twisted-3x3"])
    def test_lattice_systems_match_dense_oracle(self, monkeypatch, build):
        group, _ = build()
        calls = _record_howell_inputs(monkeypatch)
        fresh = StabilizerGroup(group.system, group.generators)
        solver = fresh._get_solver()
        [(rows, big)] = calls
        # [M | I]: 2n lifted exponent columns, then one column per generator
        m = 2 * group.system.n_sites
        assert len(rows[0]) == m + len(group.generators)
        H, pivots = _assert_matches_dense_oracle(rows, big)
        # Construction stops at the identity block: the M-block prefix of
        # the one-pass form.
        n_m = sum(1 for _, col, _ in pivots if col < m)
        assert all(col < m for _, col, _ in solver._pivots)
        assert (H[:n_m], pivots[:n_m]) == (solver._H, solver._pivots)
        # The cached kernel form is the rest of the one-pass form, shifted
        # back by n_m rows and m columns.
        kernel_H, kernel_pivots = solver._kernel_form
        width = len(rows[0])
        assert _densified(kernel_H, big, width - m) == [
            row[m:] for row in _densified(H[n_m:], big, width)]
        assert kernel_pivots == [(idx - n_m, col - m, d)
                                 for idx, col, d in pivots[n_m:]]
        assert kernel_pivots
        # the solver's own rows are untouched
        assert (H[:n_m], pivots[:n_m]) == (solver._H, solver._pivots)

    def test_solver_rows_built_in_one_pass(self, monkeypatch):
        # The one-pass [M | I] rows, built from the lifted generators as
        # columns, equal the entry-by-entry transposes on DS 4x4.
        group, _ = build_ds(4, 4)
        calls = _record_howell_inputs(monkeypatch)
        fresh = StabilizerGroup(group.system, group.generators)
        fresh._get_solver()
        [(rows, big)] = calls
        expected_rows = transposed_solver_rows(group)
        assert big == group.system.D
        # packed straight from the sparse exponents, read back dense
        assert isinstance(rows, exactmath.PackedRows)
        assert list(rows) == expected_rows

    def test_solver_rows_scale_by_row_modulus(self, monkeypatch):
        calls = _record_howell_inputs(monkeypatch)
        # rows arrive packed, so read back as residues: lifted 3, 6, 0 and
        # 6, 2, 5 mod 6, and nothing at all mod 1
        ModSolver([[1, 3, 0], [2, 1, 5]], [2, 3, 6])
        ModSolver([[], []], [])
        assert [(list(rows), big) for rows, big in calls] == [
            ([[3, 0, 0, 1, 0], [0, 2, 5, 0, 1]], 6), ([[0, 0], [0, 0]], 1)]

    def test_benchmark_trace_reads_arguments_and_result(self, monkeypatch):
        # The benchmark's layer trace records the dense input width and the
        # pivot count from howell_form's (rows, big) and (H, pivots).
        monkeypatch.syspath_prepend(str(ROOT / "tqdbench"))
        import layertrace
        rows = [[2, 0, 3, 1, 0, 0],
                [0, 4, 2, 0, 1, 0],
                [2, 4, 5, 0, 0, 1]]
        result = howell_form(rows, 6)
        stat = {}
        layertrace._howell_extra(stat, (rows, 6), result)
        layertrace._howell_extra(stat, ([], 2), howell_form([], 2))
        assert stat == {"width_max": 6, "big_max": 6,
                        "pivots": len(dense_howell_form(rows, 6)[1])}
        assert stat["pivots"] == 5
