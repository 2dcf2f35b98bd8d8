"""Tests for K-matrix presentations and condensation identities."""

import itertools
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import census_by_box
from tqdstab.anyon import (RelationError, theories_isomorphic,
                           theory_from_presentation,
                           topological_spins_census, tqd_theory,
                           zn_tc_theory)
from tqdstab.exactmath import IntMatrix, Rational01
from tqdstab import kmatrix
from tqdstab.kmatrix import (SingularMatrixError, b_of, build_k_tc_stack,
                             build_k_tqd, census, condensation_matrices,
                             coupling_matrix, k_inverse, q_of, signature,
                             theory_from_k, to_json_dict, transform,
                             upper_coupling_matrix)
from tqdstab.lattice import DS_PARAMS, TqdParams

R = Rational01


class TestConstruction:
    def test_double_semion_k(self):
        K = build_k_tqd(TqdParams([2], [1]))
        assert K.tolist() == [[0, 2], [2, -2]]

    def test_toric_code_k(self):
        K = build_k_tqd(TqdParams([2], [0]))
        assert K.tolist() == [[0, 2], [2, 0]]

    def test_two_layer_k(self):
        K = build_k_tqd(TqdParams([2, 2], [1, 0], [[0, 1], [1, 0]]))
        assert K.tolist() == [[0, 0, 2, 0],
                              [0, 0, 0, 2],
                              [2, 0, -2, -1],
                              [0, 2, -1, 0]]

    def test_coupling_matrices(self):
        p = TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]])
        assert coupling_matrix(p).tolist() == [[2, 1], [1, 2]]
        assert upper_coupling_matrix(p).tolist() == [[1, 1], [0, 1]]

    def test_tc_stack_k(self):
        K = build_k_tc_stack(TqdParams([2, 3], [0, 0]))
        assert K.tolist() == [[0, 0, 4, 0],
                              [0, 0, 0, 9],
                              [4, 0, 0, 0],
                              [0, 9, 0, 0]]


def _tqd_params_with(N):
    """Every valid TqdParams on the factors N: each n_i in Z_{N_i} and each
    n_ij in Z_gcd(N_i, N_j)."""
    M = len(N)
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    for n in itertools.product(*(range(v) for v in N)):
        for vals in itertools.product(*(range(gcd(N[i], N[j]))
                                        for i, j in pairs)):
            yield TqdParams(N, n, dict(zip(pairs, vals)))


SIGNATURE_FACTORS = (2, 3, 4, 5, 7, 8, 9)
SIGNATURE_SWEEP = (
    [(a,) for a in SIGNATURE_FACTORS]
    + [(a, b) for a in SIGNATURE_FACTORS for b in SIGNATURE_FACTORS if a <= b]
    + list(itertools.combinations_with_replacement((2, 3, 4), 3)))


class TestSignature:
    @pytest.mark.parametrize("N", SIGNATURE_SWEEP,
                             ids=lambda N: "x".join(map(str, N)))
    def test_twisted_doubles_are_non_chiral(self, N):
        # a twisted double is non-chiral; N=[3,3], n=(2,2), n_12=1 has a
        # zero diagonal entry plus a row whose diagonal is -2 times the
        # coupling between them
        for params in _tqd_params_with(N):
            assert signature(build_k_tqd(params)) == 0, params

    def test_zero_pivot_with_cancelling_partner(self):
        # adding row and column 1 to 0 would leave 2 * 1 + (-2) = 0
        assert signature(IntMatrix([[0, 1], [1, -2]])) == 0
        assert signature(IntMatrix([[0, 1, 0], [1, -2, 0], [0, 0, 0]])) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_matches_eigenvalue_signs(self, k, data):
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                rows[i][j] = rows[j][i] = data.draw(st.integers(-3, 3))
        # |eigenvalue| <= 15 and the nonzero ones multiply to a nonzero
        # integer, so each nonzero one exceeds 15**-4 in size
        eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
        expected = int((eig > 1e-9).sum() - (eig < -1e-9).sum())
        assert signature(IntMatrix(rows)) == expected


class TestStatistics:
    def test_semion_block(self):
        K = IntMatrix([[2]])
        assert q_of(K, [1]) == R(1, 4)
        assert b_of(K, [1], [1]) == R(1, 2)
        assert census(K) == {"0/1": 1, "1/4": 1}
        assert signature(K) == 1

    def test_toric_code_census(self):
        K = IntMatrix([[0, 2], [2, 0]])
        assert census(K) == {"0/1": 3, "1/2": 1}
        assert signature(K) == 0

    def test_double_semion_census(self):
        K = build_k_tqd(TqdParams([2], [1]))
        assert census(K) == {"0/1": 2, "1/4": 1, "3/4": 1}
        assert signature(K) == 0

    def test_census_matches_theory(self):
        for params in [TqdParams([2], [1]), TqdParams([3], [1]),
                       TqdParams([4], [1]),
                       TqdParams([2, 2], [1, 0], [[0, 1], [1, 0]])]:
            K = build_k_tqd(params)
            assert census(K) == topological_spins_census(tqd_theory(params))

    def test_theory_from_k(self):
        assert theories_isomorphic(theory_from_k(IntMatrix([[0, 2], [2, 0]])),
                                   zn_tc_theory(2))
        assert theories_isomorphic(
            theory_from_k(build_k_tqd(DS_PARAMS)), tqd_theory(DS_PARAMS))
        assert theories_isomorphic(
            theory_from_k(build_k_tqd(TqdParams([3], [1]))),
            tqd_theory([3], [1]))
        # The split presentation has |det K| anyons, and their statistics
        # match a census taken over a box of vectors with no Smith form.
        matrices = [IntMatrix([[0, 2], [2, 0]])]
        for params in [TqdParams([2], [1]), TqdParams([3], [1]),
                       TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]]),
                       TqdParams([2, 4], [1, 3], [[0, 1], [1, 0]]),
                       TqdParams([4], [3]),
                       TqdParams([2, 2, 2], [1, 0, 1],
                                 {(0, 1): 1, (1, 2): 1})]:
            matrices += [build_k_tqd(params), build_k_tc_stack(params)]
        for K in matrices:
            assert theory_from_k(K).size == abs(K.determinant())
            assert census(K) == census_by_box(K.tolist())

    def test_group_size_is_det(self):
        for params in [TqdParams([2], [1]), TqdParams([3], [0]),
                       TqdParams([2, 4], [1, 1], [[0, 1], [1, 0]])]:
            K = build_k_tqd(params)
            assert theory_from_k(K).size == abs(K.determinant())

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            theory_from_k(IntMatrix([[0, 0], [0, 2]]))

    def test_q_of_is_constant_on_cosets(self):
        K = build_k_tqd(TqdParams([2], [1]))
        rng = random.Random(3)
        for _ in range(20):
            l = [rng.randint(-5, 5) for _ in range(2)]
            m = [rng.randint(-3, 3) for _ in range(2)]
            shifted = [li + sum(K[i, j] * m[j] for j in range(2))
                       for i, li in enumerate(l)]
            assert q_of(K, l) == q_of(K, shifted)

    def test_odd_k_is_rejected(self):
        # q is not constant on the cosets of an odd K: l = 1 and l = 4 lie
        # in one coset of [[3]] but q reads 1/6 and 2/3.
        K = IntMatrix([[3]])
        assert q_of(K, [1]) != q_of(K, [4])
        for read in (census, to_json_dict):
            with pytest.raises(RelationError):
                read(K)


class TestTransform:
    def test_identity(self):
        K = build_k_tqd(TqdParams([2], [1]))
        assert transform(K, IntMatrix.identity(2)).tolist() == K.tolist()

    def test_swap_preserves_census(self):
        K = build_k_tqd(TqdParams([2], [1]))
        W = IntMatrix([[0, 1], [1, 0]])
        assert census(transform(K, W)) == census(K)
        assert signature(transform(K, W)) == signature(K)

    def test_shear_preserves_invariants(self):
        K = build_k_tqd(TqdParams([3], [1]))
        W = IntMatrix([[1, 1], [0, 1]])
        K2 = transform(K, W)
        assert census(K2) == census(K)
        assert theory_from_k(K2).orders == theory_from_k(K).orders

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            transform(IntMatrix([[2]]), IntMatrix([[2]]))

    def test_random_congruence_invariance(self):
        rng = random.Random(17)
        K = build_k_tqd(TqdParams([2, 2], [1, 0], [[0, 1], [1, 0]]))
        for _ in range(10):
            W = IntMatrix.identity(4)
            # random product of elementary shears and swaps stays unimodular
            for _ in range(6):
                i, j = rng.sample(range(4), 2)
                E = [[1 if r == c else 0 for c in range(4)] for r in range(4)]
                E[i][j] = rng.choice([-1, 1])
                W = W @ IntMatrix(E)
            K2 = transform(K, W)
            assert census(K2) == census(K)
            assert signature(K2) == signature(K)
            assert sorted(theory_from_k(K2).orders) == \
                sorted(theory_from_k(K).orders)


class TestInverseAndJson:
    def test_k_inverse(self):
        K = build_k_tqd(TqdParams([2], [1]))
        kinv = k_inverse(K)
        for i in range(2):
            for j in range(2):
                total = sum(K[i, t] * kinv[t][j] for t in range(2))
                assert total == (1 if i == j else 0)

    def test_json_summary(self):
        data = to_json_dict(build_k_tqd(TqdParams([2], [1])))
        assert data["K"] == [[0, 2], [2, -2]]
        assert sorted(data["group"]) == [2, 2]
        assert data["census"] == {"0/1": 2, "1/4": 1, "3/4": 1}
        assert data["signature"] == 0


class TestCondensationMatrices:
    @pytest.mark.parametrize("params", [
        TqdParams([2], [1]),
        TqdParams([2], [0]),
        TqdParams([3], [1]),
        TqdParams([4], [3]),
        TqdParams([2, 2], [1, 0], [[0, 1], [1, 0]]),
        TqdParams([2, 4], [1, 1], [[0, 1], [1, 0]]),
        TqdParams([3, 9], [2, 4], [[0, 2], [2, 0]]),
    ])
    def test_identities_hold(self, params):
        cm = condensation_matrices(params)
        assert cm.all_identities_hold, cm.report
        assert cm.k_tqd.tolist() == build_k_tqd(params).tolist()

    def test_bosons_are_bosons(self):
        params = TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]])
        cm = condensation_matrices(params)
        for c in range(cm.Q.cols):
            col = [cm.Q[r, c] for r in range(cm.Q.rows)]
            assert q_of(cm.k_tc, col).is_zero()

    @pytest.mark.parametrize("name,broken,expected", [
        # -S off by I: the bosons' self-statistics and the condensed K move.
        ("coupling_matrix",
         lambda orig: lambda p: orig(p) + IntMatrix.identity(p.M),
         (False, True, False)),
        # a wrong target K: only the condensed-K identity can notice.
        ("build_k_tqd",
         lambda orig: lambda p: orig(p) + IntMatrix.identity(2 * p.M),
         (True, True, False)),
        # a doubled parent K_TC halves every braiding: all three fail.
        ("build_k_tc_stack",
         lambda orig: lambda p: orig(p) + orig(p),
         (False, False, False)),
    ])
    def test_each_identity_can_fail(self, monkeypatch, name, broken,
                                    expected):
        params = TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]])
        monkeypatch.setattr(kmatrix, name, broken(getattr(kmatrix, name)))
        cm = condensation_matrices(params)
        assert cm.report == dict(zip(
            ["bosons_mutually_trivial", "deconfined_braid_trivially",
             "condensed_k_matches"], expected))
        assert not cm.all_identities_hold


class TestNoRepeats:
    @pytest.mark.parametrize("what", ["build", "census"])
    def test_one_adjugate_pass_per_use(self, monkeypatch, capsys, what):
        # One K: one (det, adj) for every statistic, one Smith form of the
        # presentation and one unimodular inverse of its U.
        from tqdstab import anyon, exactmath
        from tqdstab.cli import run
        calls = {"det_adjugate": 0, "smith_normal_form": 0}

        def counting(name):
            original = getattr(exactmath, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            wrapper = counting(name)
            for module in (exactmath, kmatrix, anyon):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        assert run(["kmatrix", what, "--N", "2,2", "--n", "1,1",
                    "--nij", "0,1,1"]) == 0
        capsys.readouterr()
        assert calls == {"det_adjugate": 2, "smith_normal_form": 1}

    def test_theory_from_k_matches_per_vector_statistics(self):
        # q and b straight from the exact inverse, independent of the
        # generator tables kmatrix hands the splitter
        K = build_k_tqd(TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]]))
        k = K.rows
        inv = k_inverse(K)
        assert [[sum(K[i, t] * inv[t][j] for t in range(k))
                 for j in range(k)] for i in range(k)] == \
            [[int(i == j) for j in range(k)] for i in range(k)]

        def pair(l, lp, scale):
            return R(sum(l[i] * inv[i][j] * lp[j] for i in range(k)
                         for j in range(k)) / scale)

        units = [[int(i == j) for j in range(k)] for i in range(k)]
        presented = theory_from_presentation(
            [pair(e, e, 2) for e in units],
            [[pair(e, f, 1) for f in units] for e in units], K)
        assert theory_from_k(K) == presented.theory
        gens = presented.gen_exprs
        assert list(presented.theory.q_gen) == [pair(g, g, 2) for g in gens]
        assert [list(row) for row in presented.theory.b_gen] == \
            [[pair(g, h, 1) for h in gens] for g in gens]
        assert [q_of(K, g) for g in gens] == [pair(g, g, 2) for g in gens]
        assert [[b_of(K, g, h) for h in gens] for g in gens] == \
            [[pair(g, h, 1) for h in gens] for g in gens]
