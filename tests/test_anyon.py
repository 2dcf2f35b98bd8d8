"""Tests for abstract anyon theories, condensation, and fusion groups."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tqdstab.anyon import (AnyonTheory, RelationError, antisemion_theory,
                           braiding, cocycle_value, condense, ds_theory,
                           fusion_group, fusion_group_from_cocycle,
                           is_modular,
                           lagrangian_subgroups, semion_theory,
                           stack, stack_condense_to_tqd, stack_theories,
                           theories_isomorphic, theory_from_presentation,
                           topological_spins_census, tqd_theory,
                           validate_theory, zn_tc_theory)
from tqdstab.exactmath import IntMatrix, Rational01
from tqdstab.lattice import TqdParams

R = Rational01


class TestStandardTheories:
    def test_z2_toric_code(self):
        t = zn_tc_theory(2)
        assert t.orders == (2, 2)
        assert t.q((1, 0)) == R(0) and t.q((0, 1)) == R(0)
        assert t.q((1, 1)) == R(1, 2)  # the fermion
        assert t.b((1, 0), (0, 1)) == R(1, 2)
        assert not validate_theory(t)
        assert is_modular(t)
        assert topological_spins_census(t) == {"0/1": 3, "1/2": 1}

    def test_z4_toric_code(self):
        t = zn_tc_theory(4)
        assert t.size == 16
        for p in range(4):
            for q in range(4):
                assert t.q((p, q)) == R(p * q, 4)
        assert not validate_theory(t)

    def test_semion_pair(self):
        s, sb = semion_theory(), antisemion_theory()
        assert s.q((1,)) == R(1, 4) and sb.q((1,)) == R(3, 4)
        assert not theories_isomorphic(s, sb)
        assert theories_isomorphic(stack(s, sb), ds_theory())

    def test_double_semion(self):
        t = ds_theory()
        assert t.size == 4
        assert topological_spins_census(t) == \
            {"0/1": 2, "1/4": 1, "3/4": 1}
        assert not validate_theory(t)
        assert is_modular(t)

    def test_untwisted_double_is_toric_code(self):
        assert theories_isomorphic(tqd_theory([2], [0]), zn_tc_theory(2))
        assert theories_isomorphic(tqd_theory([3], [0]), zn_tc_theory(3))

    def test_twisted_z3(self):
        t = tqd_theory([3], [1])
        assert t.size == 9
        assert not validate_theory(t)
        assert is_modular(t)
        assert not theories_isomorphic(t, zn_tc_theory(3))


class TestLagrangian:
    def test_toric_code_has_two(self):
        subs = lagrangian_subgroups(zn_tc_theory(2))
        assert len(subs) == 2
        assert {frozenset(s) for s in subs} == {
            frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (0, 1)})}

    def test_double_semion_has_one(self):
        subs = lagrangian_subgroups(ds_theory())
        assert len(subs) == 1
        (sub,) = subs
        assert len(sub) == 2

    def test_semion_has_none_but_stack_does(self):
        # chiral semion alone admits no Lagrangian subgroup
        assert lagrangian_subgroups(semion_theory()) == []
        assert lagrangian_subgroups(stack(semion_theory(),
                                          antisemion_theory()))


class TestPresentation:
    def test_cyclic_quotient(self):
        # Z^1 / <4>: a single order-4 generator with q(g) = 1/16-style data
        def q_fn(v):
            return R(v[0] * v[0], 8)

        def b_fn(v, w):
            return R(2 * v[0] * w[0], 8)

        pres = theory_from_presentation(1, q_fn, b_fn, IntMatrix([[4]]))
        assert pres.theory.orders == (4,)
        assert pres.theory.q((1,)) == R(1, 8)
        assert pres.project([5]) == pres.project([1])

    def test_nonboson_relation_rejected(self):
        def q_fn(v):
            return R(v[0], 2)

        def b_fn(v, w):
            return R(0)

        with pytest.raises(RelationError):
            theory_from_presentation(1, q_fn, b_fn, IntMatrix([[1]]))

    def test_nonboson_relation_rejected_under_optimize(self):
        # The check must not be an assert: run the same case under python -O.
        script = (
            "from tqdstab.anyon import RelationError, "
            "theory_from_presentation\n"
            "from tqdstab.exactmath import IntMatrix, Rational01 as R\n"
            "assert False, 'asserts must be stripped under -O'\n"
            "try:\n"
            "    theory_from_presentation(1, lambda v: R(v[0], 2),\n"
            "                             lambda v, w: R(0), IntMatrix([[1]]))\n"
            "except RelationError:\n"
            "    print('rejected')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "rejected"


class TestCondensation:
    def test_condense_fermion_pair(self):
        # condensing e1 m1 e2 m2-style boson in TC x TC gives a 4-anyon theory
        t = stack(zn_tc_theory(2), zn_tc_theory(2))
        boson = (1, 1, 1, 1)
        assert t.q(boson).is_zero()
        res = condense(t, [boson])
        assert res.theory.size == 4
        assert not validate_theory(res.theory)

    def test_condense_charge(self):
        # condensing e^2 in a Z4 toric code leaves a Z2 TC-like sector
        t = zn_tc_theory(4)
        res = condense(t, [(2, 0)])
        assert res.theory.size == 4
        assert theories_isomorphic(res.theory, zn_tc_theory(2))

    def test_rejects_nonboson(self):
        with pytest.raises(ValueError):
            condense(zn_tc_theory(2), [(1, 1)])

    @pytest.mark.parametrize("N,n,nij", [
        ([2], [1], None),
        ([2], [0], None),
        ([3], [1], None),
        ([4], [1], None),
        ([2, 2], [0, 0], [[0, 1], [1, 0]]),
        ([2, 4], [1, 1], [[0, 1], [1, 0]]),
    ])
    def test_stack_condense_to_tqd(self, N, n, nij):
        result, verdict = stack_condense_to_tqd(N, n, nij)
        assert verdict
        expected = 1
        for Ni in N:
            expected *= Ni * Ni
        assert result.theory.size == expected


class TestFusionGroups:
    @pytest.mark.parametrize("N,n,nij,expect", [
        ([2], [1], None, [2, 2]),
        ([3], [1], None, [9]),
        ([2, 2], [0, 0], [[0, 1], [1, 0]], [4, 4]),
        ([2], [0], None, [2, 2]),
        ([3], [0], None, [3, 3]),
        ([4], [2], None, [4, 4]),
        ([4], [1], None, [2, 8]),
    ])
    def test_known_groups(self, N, n, nij, expect):
        assert fusion_group(N, n, nij) == sorted(expect)

    @pytest.mark.parametrize("N,n,nij", [
        ([2], [1], None),
        ([3], [1], None),
        ([4], [1], None),
        ([2, 2], [1, 0], [[0, 1], [1, 0]]),
        ([2, 3], [1, 1], None),
    ])
    def test_cocycle_route_agrees(self, N, n, nij):
        assert fusion_group(N, n, nij) == fusion_group_from_cocycle(N, n, nij)

    def test_untwisted_is_square(self):
        # untwisted models fuse as G x G
        assert fusion_group([2, 3], [0, 0]) == [6, 6]
        assert fusion_group([5], [0]) == [5, 5]


class TestCocycle:
    def test_z2_twisted_value(self):
        assert cocycle_value([2], [1], None, (1,), (1,), (1,)) == R(1, 2)
        assert cocycle_value([2], [1], None, (0,), (1,), (1,)) == R(0)
        assert cocycle_value([2], [0], None, (1,), (1,), (1,)) == R(0)

    def test_cocycle_condition(self):
        # delta omega = 0: omega(h,k,l) - omega(g+h,k,l) + omega(g,h+k,l)
        #                 - omega(g,h,k+l) + omega(g,h,k) = 0
        params = ([2, 2], [1, 0], [[0, 1], [1, 0]])
        group = [(a, b) for a in range(2) for b in range(2)]

        def add(x, y):
            return tuple((xi + yi) % 2 for xi, yi in zip(x, y))

        def w(g, h, k):
            return cocycle_value(*params, g, h, k)

        for g in group:
            for h in group:
                for k in group:
                    for l in group:
                        total = w(h, k, l) - w(add(g, h), k, l) \
                            + w(g, add(h, k), l) - w(g, h, add(k, l)) \
                            + w(g, h, k)
                        assert total.is_zero()

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cocycle_value([2], [1], None, (2,), (0,), (0,))


class TestIsomorphism:
    def test_self_isomorphic(self):
        for t in [zn_tc_theory(3), ds_theory(), tqd_theory([4], [1])]:
            assert theories_isomorphic(t, t)

    def test_census_obstruction(self):
        assert not theories_isomorphic(zn_tc_theory(2), ds_theory())

    def test_stack_order_irrelevant(self):
        t1 = stack(zn_tc_theory(2), ds_theory())
        t2 = stack(ds_theory(), zn_tc_theory(2))
        assert theories_isomorphic(t1, t2)

    def test_stack_theories_empty(self):
        t = stack_theories([])
        assert t.size == 1

    def test_braiding_wrapper_reduces(self):
        t = zn_tc_theory(2)
        assert braiding(t, (3, 0), (0, 5)) == R(1, 2)


class TestJsonRoundTrip:
    def test_round_trip(self):
        t = tqd_theory([2, 2], [1, 0], [[0, 1], [1, 0]])
        t2 = AnyonTheory.from_json_dict(t.to_json_dict())
        assert t2.orders == t.orders
        assert t2.q_gen == t.q_gen and t2.b_gen == t.b_gen


class TestParamsValidation:
    def test_tqd_params_accepts_params_object(self):
        p = TqdParams([2], [1], None)
        assert theories_isomorphic(tqd_theory(p), ds_theory())
