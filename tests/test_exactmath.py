"""Tests for the exact integer / rational-mod-1 linear algebra layer."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_howell_form
from tqdstab import exactmath
from tqdstab.exactmath import (IntegralityError, IntMatrix, ModSolver,
                               Rational01, cokernel_orders, det_adjugate,
                               howell_form, integer_kernel, invariant_factors,
                               kernel_mod, least_solution_mod, rat_sum,
                               smith_normal_form, solve_linear_mod,
                               unimodular_inverse)
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
        assert cokernel_orders(A) == [9]

    def test_z2_z2_presentation(self):
        A = IntMatrix([[0, 2], [2, -2]])
        assert smith_normal_form(A).diagonal() == [2, 2]
        assert sorted(cokernel_orders(A)) == [2, 2]

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
        assert cokernel_orders(A) == [6]
        # free factor shows up as 0
        assert cokernel_orders(IntMatrix([[2], [0]])) == [2, 0]


# ---------------------------------------------------------------------------
# Modular solving
# ---------------------------------------------------------------------------


class TestSolveLinearMod:
    def test_trivial_solvable(self):
        x = solve_linear_mod(IntMatrix([[2]]), [0], [4])
        assert x is not None
        assert (2 * x[0]) % 4 == 0

    def test_parity_obstruction(self):
        assert solve_linear_mod(IntMatrix([[2]]), [1], [4]) is None

    def test_diagonal_mod9(self):
        A = IntMatrix([[3, 0], [0, 3]])
        x = solve_linear_mod(A, [3, 6], [9, 9])
        assert x is not None
        assert (3 * x[0]) % 9 == 3 and (3 * x[1]) % 9 == 6

    def test_mixed_moduli(self):
        A = IntMatrix([[1, 1], [0, 2]])
        x = solve_linear_mod(A, [1, 2], [2, 6])
        assert x is not None
        assert (x[0] + x[1]) % 2 == 1 and (2 * x[1]) % 6 == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear_mod(IntMatrix([[1, 0]]), [1, 2], [2])

    def test_solution_verification_random(self):
        rng = random.Random(5)
        moduli_pool = [2, 3, 4, 6, 8, 9]
        for _ in range(80):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            A = _random_matrix(rng, rows, cols, bound=5)
            moduli = [rng.choice(moduli_pool) for _ in range(rows)]
            b = [rng.randrange(m) for m in moduli]
            x = solve_linear_mod(A, b, moduli)
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
        A = IntMatrix([[2]])
        vecs = kernel_mod(A, [4])
        assert any(v[0] % 4 == 2 for v in vecs)
        for v in vecs:
            assert (2 * v[0]) % 4 == 0

    def test_mod_solver_consistency(self):
        A = IntMatrix([[2, 0], [0, 3]])
        solver = ModSolver(A, [4, 9])
        x = solver.solve([2, 3])
        assert x is not None
        assert (2 * x[0]) % 4 == 2 and (3 * x[1]) % 9 == 3
        for vec in solver.kernel_basis():
            assert (2 * vec[0]) % 4 == 0 and (3 * vec[1]) % 9 == 0


# ---------------------------------------------------------------------------
# Solver properties against brute-force enumeration
# ---------------------------------------------------------------------------


@st.composite
def mod_systems(draw):
    """A x = b mod moduli with at most 3 rows and columns and lcm <= 12.
    Right-hand sides are often zero, so solves meet zero residues in pivot
    columns."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=rows,
                           max_size=rows))
    A = IntMatrix([[draw(st.integers(-6, 6)) for _ in range(cols)]
                   for _ in range(rows)], cols=cols)
    if draw(st.booleans()):
        # in the image, then some entries zeroed
        x0 = [draw(st.integers(0, 11)) for _ in range(cols)]
        b = [0 if draw(st.booleans()) else v for v in A.mat_vec(x0)]
    else:
        b = [draw(st.one_of(st.just(0), st.integers(-12, 12)))
             for _ in range(rows)]
    return A, b, moduli


def _satisfies(A, x, b, moduli):
    return all((v - bi) % m == 0
               for v, bi, m in zip(A.mat_vec(list(x)), b, moduli))


def _all_solutions(A, b, moduli):
    """Every solution with entries in [0, lcm(moduli)), in lexicographic
    order."""
    big = lcm(*moduli)
    return [list(x) for x in iproduct(range(big), repeat=A.cols)
            if _satisfies(A, x, b, moduli)]


def walk_least_solution(A, b, moduli):
    """Lexicographically smallest solution by walking every element of
    sol + span(kernel) mod lcm(moduli): the vertex-term phase fix's search
    before it reduced against a Howell form, kept as an oracle."""
    big = lcm(*moduli)
    sol = solve_linear_mod(A, b, moduli)
    if sol is None:
        return None
    solutions = {tuple(s % big for s in sol)}
    frontier = list(solutions)
    shifts = {tuple(s % big for s in vec) for vec in kernel_mod(A, moduli)}
    shifts.discard((0,) * A.cols)
    while frontier:
        base = frontier.pop()
        for shift in shifts:
            nxt = tuple((u + v) % big for u, v in zip(base, shift))
            if nxt not in solutions:
                solutions.add(nxt)
                frontier.append(nxt)
    return list(min(solutions))


class TestSolverProperties:
    @given(mod_systems())
    @settings(max_examples=150, deadline=None)
    def test_solve_agrees_with_enumeration(self, system):
        A, b, moduli = system
        x = ModSolver(A, moduli).solve(b)
        if x is None:
            assert _all_solutions(A, b, moduli) == []
        else:
            assert _satisfies(A, x, b, moduli)

    @given(mod_systems())
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis_spans_the_kernel(self, system):
        A, _, moduli = system
        big = lcm(*moduli)
        basis = ModSolver(A, moduli).kernel_basis()
        zero = [0] * A.rows
        assert all(_satisfies(A, vec, zero, moduli) for vec in basis)
        span = {(0,) * A.cols}
        frontier = list(span)
        while frontier:
            base = frontier.pop()
            for vec in basis:
                nxt = tuple((u + v) % big for u, v in zip(base, vec))
                if nxt not in span:
                    span.add(nxt)
                    frontier.append(nxt)
        assert sorted(span) == [tuple(x) for x in
                                _all_solutions(A, zero, moduli)]

    @given(mod_systems())
    @settings(max_examples=100, deadline=None)
    def test_image_size_counts_the_image(self, system):
        A, _, moduli = system
        big = lcm(*moduli)
        image = {tuple(v % m for v, m in zip(A.mat_vec(list(x)), moduli))
                 for x in iproduct(range(big), repeat=A.cols)}
        assert ModSolver(A, moduli).image_size() == len(image)

    @given(mod_systems())
    @settings(max_examples=150, deadline=None)
    def test_least_solution_matches_walk_and_enumeration(self, system):
        A, b, moduli = system
        least = least_solution_mod(A, b, moduli)
        assert least == walk_least_solution(A, b, moduli)
        solutions = _all_solutions(A, b, moduli)
        assert least == (solutions[0] if solutions else None)

    @given(st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2),
                    min_size=1, max_size=4),
           st.lists(st.integers(0, 7), min_size=4, max_size=4),
           st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=100, deadline=None)
    def test_least_solution_on_phase_fix_systems(self, rows, rhs, two_d):
        # The shape the vertex-term phase fix solves: one row per scalar
        # relation, one column per layer, every modulus 2D.
        A = IntMatrix(rows, cols=2)
        b = rhs[:len(rows)]
        moduli = [two_d] * len(rows)
        assert least_solution_mod(A, b, moduli) == walk_least_solution(
            A, b, moduli)


# ---------------------------------------------------------------------------
# Sparse Howell rows against the dense oracle
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


def _densified(H, width):
    return [[row.get(j, 0) for j in range(width)] for row in H]


def _assert_matches_dense_oracle(rows, big):
    width = len(rows[0]) if rows else 0
    H, pivots = howell_form(rows, big)
    dense_H, dense_pivots = dense_howell_form(rows, big)
    assert pivots == dense_pivots
    assert _densified(H, width) == dense_H
    # exactly the nonzero residues are stored
    assert all(0 <= j < width and 0 < v < big
               for row in H for j, v in row.items())
    return H, pivots


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
        assert H == [{0: 2, 1: 1}, {1: 2}]
        assert pivots == [(0, 0, 2), (1, 1, 2)]

    @pytest.mark.parametrize("build", [
        lambda: build_ds(4, 4),
        lambda: build_tqd(TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]]), 3, 3),
    ], ids=["ds-4x4", "tqd22-twisted-3x3"])
    def test_lattice_systems_match_dense_oracle(self, monkeypatch, build):
        group, _ = build()
        calls = []
        original = exactmath.howell_form

        def recording(rows, big):
            calls.append((rows, big))
            return original(rows, big)

        monkeypatch.setattr(exactmath, "howell_form", recording)
        fresh = StabilizerGroup(group.system, group.generators,
                                validate=False)
        solver = fresh._get_solver()
        [(rows, big)] = calls
        # [M | I]: 2n lifted exponent columns, then one column per generator
        assert len(rows[0]) == 2 * group.system.n_sites + len(
            group.generators)
        H, pivots = _assert_matches_dense_oracle(rows, big)
        assert (H, pivots) == (solver._H, solver._pivots)

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
