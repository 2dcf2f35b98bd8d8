"""Tests for K-matrix presentations and condensation identities."""

import random

import pytest

from tqdstab.anyon import (ds_theory, theories_isomorphic,
                           topological_spins_census, tqd_theory,
                           zn_tc_theory)
from tqdstab.exactmath import IntMatrix, Rational01
from tqdstab import kmatrix
from tqdstab.kmatrix import (SingularMatrixError, anyon_group_from_k, b_of,
                             build_k_tc_stack, build_k_tqd, census,
                             condensation_matrices, coupling_matrix,
                             k_inverse, q_of, reduce_vector, signature,
                             theory_from_k, to_json_dict, transform,
                             upper_coupling_matrix)
from tqdstab.lattice import TqdParams

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


class TestStatistics:
    def test_semion_block(self):
        K = IntMatrix([[2]])
        assert q_of(K, [1]) == R(1, 4)
        assert b_of(K, [1], [1]) == R(1, 2)
        assert census(K) == {R(0): 1, R(1, 4): 1}
        assert signature(K) == 1

    def test_toric_code_census(self):
        K = IntMatrix([[0, 2], [2, 0]])
        assert census(K) == {R(0): 3, R(1, 2): 1}
        assert signature(K) == 0

    def test_double_semion_census(self):
        K = build_k_tqd(TqdParams([2], [1]))
        assert census(K) == {R(0): 2, R(1, 4): 1, R(3, 4): 1}
        assert signature(K) == 0

    def test_census_matches_theory(self):
        for params in [TqdParams([2], [1]), TqdParams([3], [1]),
                       TqdParams([4], [1]),
                       TqdParams([2, 2], [1, 0], [[0, 1], [1, 0]])]:
            K = build_k_tqd(params)
            hist = {str(q): c for q, c in census(K).items()}
            assert hist == topological_spins_census(tqd_theory(params))

    def test_theory_from_k(self):
        assert theories_isomorphic(theory_from_k(IntMatrix([[0, 2], [2, 0]])),
                                   zn_tc_theory(2))
        assert theories_isomorphic(
            theory_from_k(build_k_tqd(TqdParams([2], [1]))), ds_theory())
        assert theories_isomorphic(
            theory_from_k(build_k_tqd(TqdParams([3], [1]))),
            tqd_theory([3], [1]))

    def test_group_size_is_det(self):
        for params in [TqdParams([2], [1]), TqdParams([3], [0]),
                       TqdParams([2, 4], [1, 1], [[0, 1], [1, 0]])]:
            K = build_k_tqd(params)
            group = anyon_group_from_k(K)
            assert group.size == abs(K.determinant())

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            anyon_group_from_k(IntMatrix([[0, 0], [0, 2]]))

    def test_reduce_vector_canonical(self):
        K = build_k_tqd(TqdParams([2], [1]))
        rng = random.Random(3)
        for _ in range(20):
            l = [rng.randint(-5, 5) for _ in range(2)]
            m = [rng.randint(-3, 3) for _ in range(2)]
            shifted = [li + sum(K[i, j] * m[j] for j in range(2))
                       for i, li in enumerate(l)]
            assert reduce_vector(K, l) == reduce_vector(K, shifted)
            assert q_of(K, l) == q_of(K, reduce_vector(K, l))


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
        assert anyon_group_from_k(K2).orders == anyon_group_from_k(K).orders

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
            assert sorted(anyon_group_from_k(K2).orders) == \
                sorted(anyon_group_from_k(K).orders)


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
        # One K: anyon_group_from_k's singular check and unimodular inverse,
        # then one (det, adj) for every anyon's statistic; one Smith form.
        from tqdstab import exactmath
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
            monkeypatch.setattr(exactmath, name, wrapper)
            monkeypatch.setattr(kmatrix, name, wrapper)
        assert run(["kmatrix", what, "--N", "2,2", "--n", "1,1",
                    "--nij", "0,1,1"]) == 0
        capsys.readouterr()
        assert calls == {"det_adjugate": 3, "smith_normal_form": 1}

    def test_theory_from_k_matches_per_vector_statistics(self):
        K = build_k_tqd(TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]]))
        theory = theory_from_k(K)
        gens = anyon_group_from_k(K).generators
        assert list(theory.q_gen) == [q_of(K, g) for g in gens]
        assert [list(row) for row in theory.b_gen] == [
            [b_of(K, g, h) for h in gens] for g in gens]
