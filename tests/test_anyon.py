"""Tests for abstract anyon theories, condensation, and fusion groups."""

import itertools
import os
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (condensed_census_by_scan, exhaustive_theory_problems,
                     fusion_group_by_census, is_modular_by_enumeration)

from tqdstab import anyon
from tqdstab.anyon import (AnyonTheory, RelationError, TheoryCheckError,
                           cocycle_value, condense, fusion_group,
                           fusion_group_from_cocycle, is_modular,
                           lagrangian_subgroups,
                           stack, stack_condense_to_tqd, stack_theories,
                           theories_isomorphic, theory_from_presentation,
                           topological_spins_census, tqd_theory,
                           zn_tc_theory)
from tqdstab.exactmath import IntMatrix, Rational01
from tqdstab.lattice import DS_PARAMS, TqdParams

R = Rational01
SEMION = AnyonTheory((2,), (R(1, 4),), ((R(1, 2),),))
ANTISEMION = AnyonTheory((2,), (R(3, 4),), ((R(1, 2),),))
DS = tqd_theory(DS_PARAMS)


class TestStandardTheories:
    def test_z2_toric_code(self):
        t = zn_tc_theory(2)
        assert t.orders == (2, 2)
        assert t.q((1, 0)) == R(0) and t.q((0, 1)) == R(0)
        assert t.q((1, 1)) == R(1, 2)  # the fermion
        assert t.b((1, 0), (0, 1)) == R(1, 2)
        assert not exhaustive_theory_problems(t.orders, t.q_gen, t.b_gen)
        assert is_modular(t)
        assert topological_spins_census(t) == {"0/1": 3, "1/2": 1}

    def test_z4_toric_code(self):
        t = zn_tc_theory(4)
        assert t.size == 16
        for p in range(4):
            for q in range(4):
                assert t.q((p, q)) == R(p * q, 4)
        assert not exhaustive_theory_problems(t.orders, t.q_gen, t.b_gen)

    def test_semion_pair(self):
        assert SEMION.q((1,)) == R(1, 4) and ANTISEMION.q((1,)) == R(3, 4)
        assert not theories_isomorphic(SEMION, ANTISEMION)
        assert theories_isomorphic(stack(SEMION, ANTISEMION), DS)

    def test_double_semion(self):
        t = DS
        assert t.size == 4
        assert topological_spins_census(t) == \
            {"0/1": 2, "1/4": 1, "3/4": 1}
        assert not exhaustive_theory_problems(t.orders, t.q_gen, t.b_gen)
        assert is_modular(t)

    def test_untwisted_double_is_toric_code(self):
        assert theories_isomorphic(tqd_theory([2], [0]), zn_tc_theory(2))
        assert theories_isomorphic(tqd_theory([3], [0]), zn_tc_theory(3))

    def test_twisted_z3(self):
        t = tqd_theory([3], [1])
        assert t.size == 9
        assert not exhaustive_theory_problems(t.orders, t.q_gen, t.b_gen)
        assert is_modular(t)
        assert not theories_isomorphic(t, zn_tc_theory(3))


@st.composite
def small_tables(draw):
    """Generator tables (orders, q, b) on up to three generators of order
    1..4 whose q and b denominators are drawn so that valid and invalid data
    are both common; b is symmetric with b_ii = 2 q_i.
    """
    orders = draw(st.lists(st.integers(1, 4), max_size=3))

    def rational(o1, o2):
        den = draw(st.sampled_from([1, 4, 2 * o1, gcd(o1, o2), o1 * o2,
                                    2 * o1 * o2]))
        return R(draw(st.integers(0, den - 1)), den)

    k = len(orders)
    q = [rational(o, o) for o in orders]
    b = [[2 * q[i] if i == j else None for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            b[i][j] = b[j][i] = rational(orders[i], orders[j])
    return orders, q, b


def _constructs(orders, q, b) -> bool:
    """True iff AnyonTheory accepts the tables; False iff it raises
    TheoryCheckError."""
    try:
        AnyonTheory(orders, q, b)
    except TheoryCheckError:
        return False
    return True


class TestValidateTheory:
    @given(small_tables())
    @settings(max_examples=150, deadline=None)
    def test_generator_conditions_match_exhaustive_check(self, tables):
        # construction raises iff the exhaustive oracle finds a problem
        assert _constructs(*tables) == (
            not exhaustive_theory_problems(*tables))

    @pytest.mark.parametrize("orders,q,b01,valid", [
        ((3,), [R(1, 9)], None, False),     # 9 q = 1 but 3 b(g,g) = 2/3
        ((2,), [R(1, 4)], None, True),      # the semion
        ((1,), [R(1, 3)], None, True),      # order 1: never seen
        ((1, 2), [R(1, 3), R(0)], R(1, 3), True),
        ((2, 2), [R(0), R(0)], R(1, 4), False),  # 2 b(g0, g1) = 1/2
        ((2, 4), [R(0), R(1, 8)], R(1, 2), True),
    ])
    def test_known_verdicts(self, orders, q, b01, valid):
        b = [[2 * q[i] if i == j else b01 for j in range(len(q))]
             for i in range(len(q))]
        assert _constructs(orders, q, b) == valid
        assert (not exhaustive_theory_problems(orders, q, b)) == valid

    def test_json_is_checked(self):
        # 2 b(g, g) = 2/3 != 0: the JSON route runs the same check
        data = {"orders": [2], "q_gen": ["1/6"], "b_gen": [["1/3"]]}
        with pytest.raises(TheoryCheckError, match="quadratic form"):
            AnyonTheory.from_json_dict(data)

    def test_tqd_theory_iso_check_is_fast(self):
        # N=[3,9] has 729 anyons; the exhaustive check took ~20 s here.
        start = time.perf_counter()
        theory = tqd_theory([3, 9], [1, 2], [[0, 2], [2, 0]])
        assert theory.size == 729
        assert time.perf_counter() - start < 5


@st.composite
def valid_theories(draw):
    """A random theory on up to three generators of order <= 6 whose tables
    pass AnyonTheory's check: q_i = m / (2 o_i) with o_i m even, and
    b_ij = t / gcd(o_i, o_j)."""
    orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    k = len(orders)
    q = []
    for o in orders:
        m = draw(st.integers(0, 2 * o - 1))
        q.append(R(m + m * (o % 2), 2 * o))
    b = [[2 * qi if i == j else None for j in range(k)]
         for i, qi in enumerate(q)]
    for i in range(k):
        for j in range(i + 1, k):
            g = gcd(orders[i], orders[j])
            b[i][j] = b[j][i] = R(draw(st.integers(0, g - 1)), g)
    return AnyonTheory(orders, q, b)


TRANSPARENT_FERMION = AnyonTheory((2,), (R(1, 2),), ((R(0),),))
TRANSPARENT_BOSON = AnyonTheory((2,), (R(0),), ((R(0),),))


class TestModularity:
    """is_modular reads the pairing kernel against the generators; the
    enumeration over every anyon is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(valid_theories())
    def test_kernel_matches_enumeration(self, theory):
        assert is_modular(theory) == is_modular_by_enumeration(theory)

    @pytest.mark.parametrize("theory,modular", [
        (anyon.TRIVIAL_THEORY, True),
        (stack(DS, TRANSPARENT_FERMION), False),
        (stack(zn_tc_theory(3), TRANSPARENT_BOSON), False),
        (stack_theories([SEMION, TRANSPARENT_FERMION,
                         zn_tc_theory(2)]), False),
        (stack(tqd_theory([2, 4], [1, 1], [[0, 1], [1, 0]]),
               zn_tc_theory(4)), True),
    ], ids=["trivial", "ds-fermion", "tc3-boson", "semion-fermion-tc2",
            "tqd24-tc4"])
    def test_known_theories(self, theory, modular):
        assert is_modular(theory) == is_modular_by_enumeration(theory) == \
            modular

    def test_invalid_theory_is_rejected(self):
        # 2 b(g, g) = 2/3 != 0: b is not defined on Z_2, and the kernel
        # of big * e_i would not reduce to zero there; no such theory is
        # made for is_modular to read
        with pytest.raises(TheoryCheckError, match="quadratic form"):
            AnyonTheory((2,), (R(1, 6),), ((R(1, 3),),))

    def test_enumerates_no_anyon(self, monkeypatch):
        theory = tqd_theory([8, 8], [1, 3])
        assert theory.size == 4096
        monkeypatch.setattr(AnyonTheory, "elements", None)
        assert is_modular(theory)


class TestLagrangian:
    def test_toric_code_has_two(self):
        subs = lagrangian_subgroups(zn_tc_theory(2))
        assert len(subs) == 2
        assert {frozenset(s) for s in subs} == {
            frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (0, 1)})}

    def test_double_semion_has_one(self):
        subs = lagrangian_subgroups(DS)
        assert len(subs) == 1
        (sub,) = subs
        assert len(sub) == 2

    def test_semion_has_none_but_stack_does(self):
        # chiral semion alone admits no Lagrangian subgroup
        assert lagrangian_subgroups(SEMION) == []
        assert lagrangian_subgroups(stack(SEMION, ANTISEMION))


class TestPresentation:
    def test_cyclic_quotient(self):
        # Z^1 / <4>: a single order-4 generator with q(g) = 1/8
        pres = theory_from_presentation([R(1, 8)], [[R(1, 4)]],
                                        IntMatrix([[4]]))
        assert pres.theory.orders == (4,)
        assert pres.theory.q((1,)) == R(1, 8)
        assert pres.project([5]) == pres.project([1])

    def test_nonboson_relation_rejected(self):
        with pytest.raises(RelationError):
            theory_from_presentation([R(1, 2)], [[R(0)]], IntMatrix([[1]]))

    @pytest.mark.parametrize("q_gen,b_gen", [
        ([R(1, 4), R(0)], [[R(1, 2), R(1, 2)], [R(0), R(0)]]),
        ([R(1, 4)], [[R(0)]]),
    ], ids=["asymmetric", "diagonal"])
    def test_tables_are_checked(self, q_gen, b_gen):
        # One check on generator data: b symmetric with b_ii = 2 q_i.
        k = len(q_gen)
        relations = IntMatrix.diagonal([4] * k)
        with pytest.raises(TheoryCheckError, match="generator tables"):
            theory_from_presentation(q_gen, b_gen, relations)
        # AnyonTheory runs the same check, with the same error
        with pytest.raises(TheoryCheckError, match="generator tables"):
            AnyonTheory([4] * k, q_gen, b_gen)

    def test_nonboson_relation_rejected_under_optimize(self):
        # The check must not be an assert: run the same case under python -O.
        script = (
            "from tqdstab.anyon import RelationError, "
            "theory_from_presentation\n"
            "from tqdstab.exactmath import IntMatrix, Rational01 as R\n"
            "assert False, 'asserts must be stripped under -O'\n"
            "try:\n"
            "    theory_from_presentation([R(1, 2)], [[R(0)]], "
            "IntMatrix([[1]]))\n"
            "except RelationError:\n"
            "    print('rejected')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "rejected"


STACK_PARAMS = [
    ([2], [1], None),
    ([2], [0], None),
    ([3], [1], None),
    ([4], [1], None),
    ([2, 2], [0, 0], [[0, 1], [1, 0]]),
    ([2, 4], [1, 1], [[0, 1], [1, 0]]),
]


class TestCondensation:
    def test_condense_fermion_pair(self):
        # condensing e1 m1 e2 m2-style boson in TC x TC gives a 4-anyon theory
        t = stack(zn_tc_theory(2), zn_tc_theory(2))
        boson = (1, 1, 1, 1)
        assert t.q(boson).is_zero()
        res = condense(t, [boson])
        assert res.theory.size == 4
        t = res.theory
        assert not exhaustive_theory_problems(t.orders, t.q_gen, t.b_gen)

    def test_condense_charge(self):
        # condensing e^2 in a Z4 toric code leaves a Z2 TC-like sector
        t = zn_tc_theory(4)
        res = condense(t, [(2, 0)])
        assert res.theory.size == 4
        assert theories_isomorphic(res.theory, zn_tc_theory(2))

    def test_rejects_nonboson(self):
        with pytest.raises(ValueError):
            condense(zn_tc_theory(2), [(1, 1)])

    def test_condense_to_the_trivial_theory(self):
        # Only the boson itself is deconfined, or nothing at all.
        res = condense(zn_tc_theory(2), [(1, 0)])
        assert res.theory.size == 1
        assert res.project((0, 0)) == res.project((1, 0)) == ()
        with pytest.raises(TheoryCheckError):
            res.project((0, 1))
        empty = condense(AnyonTheory([], [], []), [])
        assert empty.theory.size == 1 and empty.project(()) == ()

    def test_braiding_between_generators_is_checked(self, monkeypatch):
        # q on each generator agrees, b between two of them does not
        split = anyon.theory_from_presentation

        def skewed(*args):
            presented = split(*args)
            t = presented.theory
            b = [[v if i == j else v + R(1, 2) for j, v in enumerate(row)]
                 for i, row in enumerate(t.b_gen)]
            return anyon.PresentedTheory(AnyonTheory(t.orders, t.q_gen, b),
                                         presented.gen_exprs,
                                         presented._project)

        monkeypatch.setattr(anyon, "theory_from_presentation", skewed)
        with pytest.raises(TheoryCheckError, match="statistics"):
            condense(stack(SEMION, SEMION), [])

    @pytest.mark.parametrize("N,n,nij", STACK_PARAMS)
    def test_stack_condense_to_tqd(self, N, n, nij):
        result, verdict = stack_condense_to_tqd(TqdParams(N, n, nij))
        assert verdict
        expected = 1
        for Ni in N:
            expected *= Ni * Ni
        assert result.theory.size == expected

    @pytest.mark.parametrize("N,n,nij", STACK_PARAMS)
    def test_stack_condense_matches_scan(self, N, n, nij):
        stacked, bosons = _stack_and_bosons(TqdParams(N, n, nij))
        condensed = condense(stacked, bosons).theory
        assert (condensed.size, topological_spins_census(condensed)) == \
            condensed_census_by_scan(stacked, bosons)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 6), min_size=1, max_size=2), st.data())
    def test_toric_code_stacks_match_scan(self, Ns, data):
        parent, bosons = _random_condensate(Ns, data)
        condensed = condense(parent, bosons).theory
        assert (condensed.size, topological_spins_census(condensed)) == \
            condensed_census_by_scan(parent, bosons)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 6), min_size=1, max_size=2), st.data())
    def test_project_adds_and_keeps_q(self, Ns, data):
        parent, bosons = _random_condensate(Ns, data)
        res = condense(parent, bosons)
        deconfined = [a for a in parent.elements()
                      if all(parent.b(a, b).is_zero() for b in bosons)]
        a = data.draw(st.sampled_from(deconfined))
        c = data.draw(st.sampled_from(deconfined))
        x, y = res.project(a), res.project(c)
        assert res.project(parent.reduce([u + v for u, v in zip(a, c)])) == \
            res.theory.reduce([u + v for u, v in zip(x, y)])
        assert res.theory.q(x) == parent.q(a)
        assert res.theory.b(x, y) == parent.b(a, c)
        # gen_exprs are the condensed generators in parent coordinates
        assert [res.project(w) for w in res.gen_exprs] == \
            res.theory.generators()


def _stack_and_bosons(params):
    """The stack of Z_{N_i^2} toric codes, coordinates (e_1, m_1, e_2, ...),
    and the bosons b_i = e_i^{N_i n_i} m_i^{-N_i} prod_{j<i} e_j^{N_j n_ij}
    that condense to the twisted double."""
    M = params.M
    stacked = stack_theories([zn_tc_theory(Ni * Ni) for Ni in params.N])
    bosons = []
    for i in range(M):
        vec = [0] * (2 * M)
        vec[2 * i] = params.N[i] * params.n[i]
        vec[2 * i + 1] = -params.N[i]
        for j in range(i):
            vec[2 * j] = params.N[j] * params.nij[i][j]
        bosons.append(vec)
    return stacked, bosons


def _random_condensate(Ns, data):
    """A stack of Z_N toric codes and a drawn set of mutually transparent
    bosons in it (possibly empty)."""
    parent = stack_theories([zn_tc_theory(N) for N in Ns])
    bosons = []
    for _ in range(data.draw(st.integers(0, 3))):
        vec = tuple(data.draw(st.integers(0, o - 1)) for o in parent.orders)
        if parent.q(vec).is_zero() and all(
                parent.b(vec, b).is_zero() for b in bosons):
            bosons.append(vec)
    return parent, bosons


class TestChecksUnderOptimize:
    """Condensation, theory-validity and condensation-matrix checks raise
    VerificationError subclasses (CLI exit 1), also under python -O."""

    SCRIPT = (
        "from tqdstab import anyon, exactmath, kmatrix\n"
        "from tqdstab.exactmath import IntMatrix, Rational01\n"
        "from tqdstab.lattice import TqdParams\n"
        "from tqdstab.stabilizer import VerificationError\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "def raised(call):\n"
        "    try:\n"
        "        call()\n"
        "    except VerificationError as exc:\n"
        "        print(type(exc).__name__)\n"
        "def rejected(owner, name, value, call):\n"
        "    saved = getattr(owner, name)\n"
        "    setattr(owner, name, value)\n"
        "    try:\n"
        "        raised(call)\n"
        "    finally:\n"
        "        setattr(owner, name, saved)\n"
        "rejected(exactmath.ModSolver, 'solve', lambda self, b: None,\n"
        "         lambda: anyon.condense(anyon.zn_tc_theory(2), [(1, 0)]))\n"
        "semion = anyon.AnyonTheory((2,), (Rational01(1, 4),),\n"
        "                           ((Rational01(1, 2),),))\n"
        "rejected(anyon.PresentedTheory, 'project',\n"
        "         lambda self, vec: (0,) * len(self.theory.orders),\n"
        "         lambda: anyon.condense(anyon.stack(anyon.zn_tc_theory(2),\n"
        "                                            semion),\n"
        "                                [(1, 0, 0)]))\n"
        "raised(lambda: anyon.AnyonTheory((2,), (Rational01(1, 6),),\n"
        "                                 ((Rational01(1, 3),),)))\n"
        "rejected(kmatrix, 'upper_coupling_matrix',\n"
        "         lambda params: IntMatrix([[1, 1], [0, 1]]),\n"
        "         lambda: kmatrix.condensation_matrices(\n"
        "             TqdParams([2, 3], [1, 1])))\n")

    def test_each_check_raises_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-O", "-c", self.SCRIPT],
                             env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["TheoryCheckError"] * 3 + [
            "CondensationMatrixError"]

    def test_failed_theory_check_exits_one(self, monkeypatch, capsys):
        from tqdstab import anyon
        from tqdstab.cli import run
        monkeypatch.setattr(anyon, "tqd_theory", lambda params: AnyonTheory(
            (2,), (R(1, 6),), ((R(1, 3),),)))
        assert run(["theory", "tqd", "--N", "2", "--n", "1"]) == 1
        assert "verification failed" in capsys.readouterr().err


CENSUS_FACTORS = (2, 3, 4, 5, 8, 9)


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
        assert fusion_group(TqdParams(N, n, nij)) == sorted(expect)

    @pytest.mark.parametrize("N,n,nij", [
        ([2], [1], None),
        ([3], [1], None),
        ([4], [1], None),
        ([2, 2], [1, 0], [[0, 1], [1, 0]]),
        ([2, 3], [1, 1], None),
    ])
    def test_cocycle_route_agrees(self, N, n, nij):
        params = TqdParams(N, n, nij)
        assert fusion_group(params) == fusion_group_from_cocycle(params)

    def test_cocycle_route_answers_large_extensions(self):
        # |G|^2 = 1024^2 elements: the route reads a presentation, so no
        # element is enumerated and no size limit applies
        start = time.perf_counter()
        params = TqdParams([32, 32], [1, 1])
        assert fusion_group_from_cocycle(params) == \
            fusion_group(params) == [2, 2, 512, 512]
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("N", [
        (N,) for N in CENSUS_FACTORS] + [
        (N1, N2) for N1 in CENSUS_FACTORS for N2 in CENSUS_FACTORS
        if N1 <= N2 and (N1 * N2) ** 2 <= 2 ** 12],
        ids=lambda N: "x".join(map(str, N)))
    def test_cocycle_route_matches_order_census(self, N):
        # every n and n_ij: the presentation route against the Smith-free
        # enumeration of the extension
        nij_range = range(gcd(*N)) if len(N) == 2 else [0]
        for n in itertools.product(*(range(Ni) for Ni in N)):
            for v in nij_range:
                nij = [[0, v], [v, 0]] if len(N) == 2 else [[0]]
                assert fusion_group_from_cocycle(TqdParams(N, n, nij)) == \
                    fusion_group_by_census(N, n, nij), (N, n, v)

    def test_untwisted_is_square(self):
        # untwisted models fuse as G x G
        assert fusion_group(TqdParams([2, 3], [0, 0])) == [6, 6]
        assert fusion_group(TqdParams([5], [0])) == [5, 5]


class TestCocycle:
    def test_z2_twisted_value(self):
        ds = TqdParams([2], [1])
        assert cocycle_value(ds, (1,), (1,), (1,)) == R(1, 2)
        assert cocycle_value(ds, (0,), (1,), (1,)) == R(0)
        assert cocycle_value(TqdParams([2], [0]), (1,), (1,), (1,)) == R(0)

    def test_cocycle_condition(self):
        # delta omega = 0: omega(h,k,l) - omega(g+h,k,l) + omega(g,h+k,l)
        #                 - omega(g,h,k+l) + omega(g,h,k) = 0
        params = TqdParams([2, 2], [1, 0], [[0, 1], [1, 0]])
        group = [(a, b) for a in range(2) for b in range(2)]

        def add(x, y):
            return tuple((xi + yi) % 2 for xi, yi in zip(x, y))

        def w(g, h, k):
            return cocycle_value(params, g, h, k)

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
            cocycle_value(TqdParams([2], [1]), (2,), (0,), (0,))


class TestIsomorphism:
    def test_self_isomorphic(self):
        for t in [zn_tc_theory(3), DS, tqd_theory([4], [1])]:
            assert theories_isomorphic(t, t)

    def test_census_obstruction(self):
        assert not theories_isomorphic(zn_tc_theory(2), DS)

    def test_stack_order_irrelevant(self):
        t1 = stack(zn_tc_theory(2), DS)
        t2 = stack(DS, zn_tc_theory(2))
        assert theories_isomorphic(t1, t2)

    def test_target_statistics_read_once_per_anyon(self, monkeypatch):
        # The census and every generator's candidate list read one q table
        # over the target's anyons.
        t1 = tqd_theory([2, 4], [1, 1], [[0, 1], [1, 0]])
        t2 = AnyonTheory.from_json_dict(t1.to_json_dict())
        calls = []
        q = AnyonTheory.q
        monkeypatch.setattr(AnyonTheory, "q",
                            lambda self, a: calls.append(self) or q(self, a))
        iso = anyon.theories_isomorphism(t1, t2)
        assert iso is not None
        assert all(q(t2, a) == q(t1, g) for g, a in iso.items())
        assert sum(theory is t2 for theory in calls) == t2.size == 64

    def test_stack_theories_empty(self):
        t = stack_theories([])
        assert t.size == 1

class TestJsonRoundTrip:
    def test_round_trip(self):
        t = tqd_theory([2, 2], [1, 0], [[0, 1], [1, 0]])
        t2 = AnyonTheory.from_json_dict(t.to_json_dict())
        assert t2.orders == t.orders
        assert t2.q_gen == t.q_gen and t2.b_gen == t.b_gen


class TestParamsValidation:
    def test_tqd_params_accepts_params_object(self):
        p = TqdParams([2], [1], None)
        assert theories_isomorphic(tqd_theory(p), DS)
