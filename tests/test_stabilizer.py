"""Tests for stabilizer-group machinery, with brute-force closure oracles."""

import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdstab import exactmath, stabilizer
from tqdstab.exactmath import Rational01
from tqdstab.lattice import DS_PARAMS, build_ds, build_tqd
from tqdstab.pauli import (PauliOperator, QuditSystem, commutation_phase,
                           commutes, multiply, scalar, single)
from tqdstab.stabilizer import (InconsistentGroupError, NonCommutingError,
                                StabilizerGroup, assert_commuting,
                                centralizer_in_group, group_order,
                                groups_equal, logical_dimension,
                                measure, member_with_phase,
                                scalar_consistency)


def brute_force_order(S):
    """Closure of the generators under multiplication, modulo phases."""
    def key(P):
        return (tuple(sorted(P.x.items())), tuple(sorted(P.z.items())))

    seen = {key(PauliOperator(S.system))}
    frontier = list(seen)
    elements = {k: PauliOperator(S.system) for k in seen}
    while frontier:
        k = frontier.pop()
        base = elements[k]
        for g in S.generators:
            nxt = multiply(base, g)
            nk = key(nxt)
            if nk not in elements:
                elements[nk] = nxt
                frontier.append(nk)
    return len(elements)


def random_commuting_group(rng, dims, n_gens):
    sysm = QuditSystem(dims)
    gens = []
    attempts = 0
    while len(gens) < n_gens and attempts < 200:
        attempts += 1
        P = PauliOperator(
            sysm,
            x={s: rng.randrange(d) for s, d in enumerate(dims)},
            z={s: rng.randrange(d) for s, d in enumerate(dims)})
        if all(commutes(P, g) for g in gens):
            gens.append(P)
    return StabilizerGroup(sysm, gens)


def count_commuting_checks(monkeypatch):
    """Record every pairwise commutation check made from now on."""
    calls = []
    original = stabilizer.assert_commuting
    monkeypatch.setattr(stabilizer, "assert_commuting",
                        lambda group: calls.append(group) or original(group))
    return calls


def all_pairs_noncommuting(S):
    """Every generator pair tested (the check written before the site
    index)."""
    gens = S.generators
    return [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))
            if not commutation_phase(gens[i], gens[j]).is_zero()]


@st.composite
def sparse_groups(draw):
    """Unvalidated groups of low-weight generators on a mixed-dimension
    system: many pairs share no site, and some pairs fail to commute."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1,
                         max_size=6))
    sysm = QuditSystem(dims)
    exps = st.dictionaries(st.sampled_from(range(len(dims))),
                           st.integers(-4, 4), max_size=2)
    gens = [PauliOperator(sysm, phase=draw(st.integers(0, 23)),
                          x=draw(exps), z=draw(exps))
            for _ in range(draw(st.integers(0, 8)))]
    return StabilizerGroup(sysm, gens, validate=False)


class TestConstruction:
    def test_commuting_validation(self):
        sysm = QuditSystem([2])
        X, Z = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        with pytest.raises(NonCommutingError):
            StabilizerGroup(sysm, [X, Z])
        S = StabilizerGroup(sysm, [X, Z], validate=False)
        assert assert_commuting(S) == [(0, 1)]

    def test_system_mismatch(self):
        with pytest.raises(ValueError):
            StabilizerGroup(QuditSystem([2]),
                            [single(QuditSystem([3]), 0, "X", 1)])

    def test_json_round_trip(self):
        sysm = QuditSystem([2, 4])
        S = StabilizerGroup(sysm, [
            PauliOperator(sysm, phase=3, x={0: 1}, z={1: 2}),
            PauliOperator(sysm, x={1: 2}),
        ], validate=False)
        S2 = StabilizerGroup.from_json_dict(
            __import__("json").loads(S.to_json()), validate=False)
        assert S2.system.dims == S.system.dims
        assert S2.generators == S.generators


class TestOrderAndDimension:
    def test_bell_group(self):
        sysm = QuditSystem([2, 2])
        XX = PauliOperator(sysm, x={0: 1, 1: 1})
        ZZ = PauliOperator(sysm, z={0: 1, 1: 1})
        S = StabilizerGroup(sysm, [XX, ZZ])
        assert group_order(S) == 4
        assert logical_dimension(S) == 1

    def test_single_x(self):
        sysm = QuditSystem([2])
        S = StabilizerGroup(sysm, [single(sysm, 0, "X", 1)])
        assert group_order(S) == 2
        assert logical_dimension(S) == 1

    def test_z_squared_qudit4(self):
        sysm = QuditSystem([4])
        S = StabilizerGroup(sysm, [single(sysm, 0, "Z", 2)])
        assert group_order(S) == 2
        assert logical_dimension(S) == 2

    def test_x2_z2_qudit4(self):
        sysm = QuditSystem([4])
        S = StabilizerGroup(sysm, [single(sysm, 0, "X", 2),
                                   single(sysm, 0, "Z", 2)])
        assert group_order(S) == 4
        assert logical_dimension(S) == 1

    def test_empty_group(self):
        sysm = QuditSystem([3, 3])
        S = StabilizerGroup(sysm, [])
        assert group_order(S) == 1
        assert logical_dimension(S) == 9

    def test_redundant_generators(self):
        sysm = QuditSystem([2, 2])
        XX = PauliOperator(sysm, x={0: 1, 1: 1})
        S = StabilizerGroup(sysm, [XX, XX])
        assert group_order(S) == 2

    def test_noncommuting_rejected(self):
        sysm = QuditSystem([2])
        S = StabilizerGroup(sysm, [single(sysm, 0, "X", 1),
                                   single(sysm, 0, "Z", 1)], validate=False)
        with pytest.raises(NonCommutingError):
            group_order(S)
        with pytest.raises(NonCommutingError):
            scalar_consistency(S)

    def test_noncommuting_rejected_on_every_call(self, monkeypatch):
        sysm = QuditSystem([2])
        S = StabilizerGroup(sysm, [single(sysm, 0, "X", 1),
                                   single(sysm, 0, "Z", 1)], validate=False)
        calls = count_commuting_checks(monkeypatch)
        for _ in range(2):
            with pytest.raises(NonCommutingError, match=r"\(0, 1\)"):
                group_order(S)
        with pytest.raises(NonCommutingError):
            scalar_consistency(S)
        assert calls == [S]  # the pairwise check ran once

    def test_builder_group_is_not_rechecked(self, monkeypatch):
        groups = [build_ds(3, 3)[0], build_tqd(DS_PARAMS, 3, 3)[0]]
        calls = count_commuting_checks(monkeypatch)
        assert [logical_dimension(g) for g in groups] == [4, 4]
        assert calls == []

    @given(sparse_groups())
    @settings(max_examples=120, deadline=None)
    def test_site_index_finds_the_all_pairs_list(self, S):
        assert assert_commuting(S) == all_pairs_noncommuting(S)

    def test_site_index_reports_noncommuting_pairs_in_order(self):
        sysm = QuditSystem([2, 4, 2])
        X0, Z0 = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        Z1, X1 = single(sysm, 1, "Z", 2), single(sysm, 1, "X", 1)
        S = StabilizerGroup(sysm, [Z1, X0, single(sysm, 2, "X", 1), X1, Z0,
                                   multiply(X0, X1)], validate=False)
        expected = [(0, 3), (0, 5), (1, 4), (4, 5)]
        assert all_pairs_noncommuting(S) == expected
        assert assert_commuting(S) == expected
        with pytest.raises(NonCommutingError, match=r"\(0, 3\)"):
            group_order(S)

    @pytest.mark.parametrize("dims,n_gens,seed", [
        ((2, 2), 2, 0), ((2, 2, 2), 3, 1), ((3, 3), 2, 2),
        ((4, 2), 2, 3), ((2, 3), 2, 4), ((4, 4), 2, 5),
        ((9,), 1, 6), ((6,), 2, 7),
    ])
    def test_order_matches_brute_force(self, dims, n_gens, seed):
        rng = random.Random(seed)
        for _ in range(6):
            S = random_commuting_group(rng, dims, n_gens)
            assert group_order(S) == brute_force_order(S)


class TestRephased:
    def _group(self, validate=True):
        sysm = QuditSystem([2, 2])
        gens = [PauliOperator(sysm, x={0: 1, 1: 1}),
                PauliOperator(sysm, z={0: 1, 1: 1})]
        return StabilizerGroup(sysm, gens, validate=validate)

    def test_shares_solver_and_keeps_order(self):
        S = self._group()
        order = group_order(S)
        minus_xx = multiply(scalar(S.system, 2), S.generators[0])
        R = S.rephased([minus_xx, S.generators[1]])
        assert R._solver is S._solver
        assert R.generators == (minus_xx, S.generators[1])
        assert group_order(R) == order
        assert member_with_phase(R, minus_xx).is_member
        assert member_with_phase(S, minus_xx).verdict == "MemberUpToPhase"

    def test_rejects_changed_exponents(self):
        S = self._group()
        sysm = S.system
        with pytest.raises(ValueError, match="keep the exponents"):
            S.rephased([single(sysm, 0, "X", 1), S.generators[1]])
        with pytest.raises(ValueError, match="keep the exponents"):
            S.rephased([S.generators[0], single(sysm, 1, "Z", 1)])
        with pytest.raises(ValueError, match="keep the exponents"):
            S.rephased(S.generators[:1])

    def test_commutation_is_checked_once(self, monkeypatch):
        sysm = QuditSystem([2])
        bad = StabilizerGroup(sysm, [single(sysm, 0, "X", 1),
                                     single(sysm, 0, "Z", 1)],
                              validate=False)
        calls = count_commuting_checks(monkeypatch)
        with pytest.raises(NonCommutingError):
            bad.rephased(bad.generators)
        assert len(calls) == 1  # the unchecked parent leaves it to the result
        good = self._group()  # checked at construction
        calls.clear()
        good.rephased(good.generators)
        assert calls == []

    def test_builder_computes_the_wide_howell_form_once(self, monkeypatch):
        widths = []
        original = exactmath.howell_form

        def counting(rows, big):
            widths.append(len(rows[0]) if rows else 0)
            return original(rows, big)

        monkeypatch.setattr(exactmath, "howell_form", counting)
        group, model = build_ds(4, 4)
        assert logical_dimension(group) == 4
        wide = 2 * group.system.n_sites + len(group.generators)
        assert widths.count(wide) == 1


class TestScalarConsistency:
    def test_consistent(self):
        sysm = QuditSystem([2, 2])
        S = StabilizerGroup(sysm, [PauliOperator(sysm, x={0: 1, 1: 1}),
                                   PauliOperator(sysm, z={0: 1, 1: 1})])
        res = scalar_consistency(S)
        assert res.consistent and res.witness is None

    def test_inconsistent_minus_one(self):
        sysm = QuditSystem([2])
        X = single(sysm, 0, "X", 1)
        S = StabilizerGroup(sysm, [X, multiply(scalar(sysm, 2), X)])
        res = scalar_consistency(S)
        assert not res.consistent
        coeffs, phase = res.witness
        assert S.combination(coeffs).is_scalar()
        assert S.combination(coeffs).phase == phase % (2 * sysm.D)
        with pytest.raises(InconsistentGroupError):
            logical_dimension(S)


class TestMembership:
    def _bell(self):
        sysm = QuditSystem([2, 2])
        XX = PauliOperator(sysm, x={0: 1, 1: 1})
        ZZ = PauliOperator(sysm, z={0: 1, 1: 1})
        return sysm, StabilizerGroup(sysm, [XX, ZZ]), XX, ZZ

    def test_member_exact(self):
        sysm, S, XX, ZZ = self._bell()
        P = multiply(XX, ZZ)
        res = member_with_phase(S, P)
        assert res.verdict == "Member" and res.is_member
        assert S.combination(res.coefficients) == P

    def test_member_up_to_phase(self):
        sysm, S, XX, ZZ = self._bell()
        minus_xx = multiply(scalar(sysm, 2), XX)
        res = member_with_phase(S, minus_xx)
        assert res.verdict == "MemberUpToPhase"
        assert res.residual_phase == Rational01(1, 2)
        assert not res.is_member

    def test_not_member(self):
        sysm, S, XX, ZZ = self._bell()
        res = member_with_phase(S, single(sysm, 0, "X", 1))
        assert res.verdict == "NotMember"

    def test_phase_folding(self):
        # i * (XZ)^2 combinations: a generator whose square is a scalar lets
        # the solver absorb phase residuals into the coefficients.
        sysm = QuditSystem([2])
        Y = PauliOperator(sysm, phase=1, x={0: 1}, z={0: 1})  # hermitian Y
        S = StabilizerGroup(sysm, [Y])
        minus_id = scalar(sysm, 2)
        res = member_with_phase(S, minus_id)
        # Y^2 = +1 for hermitian Y, so -1 is not reachable
        assert res.verdict in ("MemberUpToPhase", "NotMember") or res.is_member
        combo = S.combination(res.coefficients) if res.coefficients else None
        if res.is_member:
            assert combo == minus_id

    def test_phase_group_absorption(self):
        # generators [X, -X]: the kernel supplies a -1, so -X is a Member.
        sysm = QuditSystem([2])
        X = single(sysm, 0, "X", 1)
        S = StabilizerGroup(sysm, [X, multiply(scalar(sysm, 2), X)])
        res = member_with_phase(S, multiply(scalar(sysm, 2), X))
        assert res.is_member
        assert S.combination(res.coefficients) == multiply(scalar(sysm, 2), X)


    def test_wrong_solve_is_rejected_under_optimize(self):
        # The re-check of the solver's answer must not be an assert: run it
        # under python -O with a solver that returns a wrong vector.
        script = (
            "from tqdstab.exactmath import ModSolver\n"
            "from tqdstab.pauli import QuditSystem, single\n"
            "from tqdstab.stabilizer import (SolverCheckError, "
            "StabilizerGroup, member_with_phase)\n"
            "assert False, 'asserts must be stripped under -O'\n"
            "ModSolver.solve = lambda self, rhs: [1]\n"
            "sysm = QuditSystem([2])\n"
            "S = StabilizerGroup(sysm, [single(sysm, 0, 'X', 1)])\n"
            "try:\n"
            "    member_with_phase(S, single(sysm, 0, 'Z', 1))\n"
            "except SolverCheckError:\n"
            "    print('rejected')\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "rejected"


def phase_closure(phases, two_d):
    """Subgroup of Z_{2D} generated by phases, by breadth-first closure
    (the membership test's reachability check before the gcd form)."""
    group = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for g in phases:
            nxt = (base + g) % two_d
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return group


class TestKernelPhases:
    def test_computed_once_per_group(self, monkeypatch):
        # generators [X, -X]; both targets below need a kernel phase fix.
        sysm = QuditSystem([2])
        X = single(sysm, 0, "X", 1)
        S = StabilizerGroup(sysm, [X, multiply(scalar(sysm, 2), X)])
        n_kernel = len(S._get_solver().kernel_basis())
        calls = []
        original = StabilizerGroup.combination
        monkeypatch.setattr(StabilizerGroup, "combination",
                            lambda self, vec: calls.append(vec)
                            or original(self, vec))
        assert not scalar_consistency(S).consistent
        assert len(calls) == n_kernel
        for target in (scalar(sysm, 2), X):
            res = member_with_phase(S, target)
            assert res.is_member
            assert original(S, res.coefficients) == target
        # each membership call: one check of the solve, one of the fix
        assert len(calls) == n_kernel + 2 * 2

    def test_rephased_group_computes_its_own_table(self):
        # The builder's phase fix read the unfixed group's table; the final
        # group does not inherit it, so scalar_consistency re-checks the fix.
        group, model = build_ds(3, 3)
        assert model.phase_fix == (2,)
        assert group._kernel_phases is None
        assert scalar_consistency(group).consistent
        assert all(phase == 0 for _, phase in group._kernel_phases)

    @given(st.sampled_from([2, 4, 6, 8, 12, 16]),
           st.lists(st.integers(0, 15), max_size=4), st.integers(0, 15))
    @settings(max_examples=200, deadline=None)
    def test_gcd_reachability_equals_closure(self, two_d, phases, delta):
        phases = [p % two_d for p in phases]
        delta %= two_d
        reachable = delta % gcd(two_d, *phases) == 0
        assert reachable == (delta in phase_closure(phases, two_d))

    @given(st.sampled_from([2, 3, 4]),
           st.lists(st.integers(0, 7), max_size=3), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_scalar_membership_follows_closure(self, d, phases, delta):
        # Scalar generators make every scalar in their phase closure a
        # Member; any other scalar is only a member up to phase.
        sysm = QuditSystem([d])
        two_d = 2 * sysm.D
        gens = [single(sysm, 0, "X", 1)] + [scalar(sysm, p) for p in phases]
        S = StabilizerGroup(sysm, gens)
        target = scalar(sysm, delta)
        res = member_with_phase(S, target)
        if delta % two_d in phase_closure(phases, two_d):
            assert res.is_member
            assert S.combination(res.coefficients) == target
        else:
            assert res.verdict == "MemberUpToPhase"


@st.composite
def groups_and_probes(draw):
    """A commuting group on at most two qudits of mixed dimension (each
    drawn generator kept only if it commutes with those kept before it),
    and a probe: a random Pauli, or a generator product times a scalar."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1,
                         max_size=2))
    sysm = QuditSystem(dims)
    exps = st.dictionaries(st.sampled_from(range(len(dims))),
                           st.integers(-4, 4), max_size=2)
    two_d = 2 * sysm.D

    def pauli():
        return PauliOperator(sysm, phase=draw(st.integers(0, two_d - 1)),
                             x=draw(exps), z=draw(exps))

    gens = []
    for _ in range(draw(st.integers(0, 4))):
        P = pauli()
        if all(commutes(P, g) for g in gens):
            gens.append(P)
    S = StabilizerGroup(sysm, gens)
    if draw(st.booleans()):
        probe = pauli()
    else:
        probe = scalar(sysm, draw(st.integers(0, two_d - 1)))
        for g in gens:
            for _ in range(draw(st.integers(0, 3))):
                probe = multiply(probe, g)
    return S, probe


def group_closure(S):
    """Every element of <S> with its phase, by breadth-first closure."""
    group = {PauliOperator(S.system)}
    frontier = list(group)
    while frontier:
        base = frontier.pop()
        for g in S.generators:
            nxt = multiply(base, g)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return group


class TestMembershipProperties:
    @given(groups_and_probes())
    @settings(max_examples=150, deadline=None)
    def test_verdict_agrees_with_enumeration(self, system):
        S, probe = system
        group = group_closure(S)
        res = member_with_phase(S, probe)
        def exponents(P):
            return sorted(P.x.items()), sorted(P.z.items())

        if probe in group:
            assert res.is_member
            assert S.combination(res.coefficients) == probe
        elif any(exponents(P) == exponents(probe) for P in group):
            assert res.verdict == "MemberUpToPhase"
            combo = S.combination(res.coefficients)
            assert exponents(combo) == exponents(probe)
            assert res.residual_phase == Rational01(
                probe.phase - combo.phase, 2 * S.system.D)
        else:
            assert res.verdict == "NotMember"


class TestCentralizerAndMeasure:
    def test_centralizer_drops_anticommuting(self):
        sysm = QuditSystem([2, 2])
        X0, X1 = single(sysm, 0, "X", 1), single(sysm, 1, "X", 1)
        S = StabilizerGroup(sysm, [X0, X1])
        Z01 = PauliOperator(sysm, z={0: 1, 1: 1})
        C = centralizer_in_group(S, [Z01])
        for g in C.generators:
            assert commutes(g, Z01)
            assert member_with_phase(S, g).verdict != "NotMember"
        assert group_order(C) == 2  # only <X0 X1> survives

    def test_measure_bell(self):
        sysm = QuditSystem([2, 2])
        X0, X1 = single(sysm, 0, "X", 1), single(sysm, 1, "X", 1)
        S = StabilizerGroup(sysm, [X0, X1])
        Z01 = PauliOperator(sysm, z={0: 1, 1: 1})
        M = measure(S, [Z01])
        XX = PauliOperator(sysm, x={0: 1, 1: 1})
        expected = StabilizerGroup(sysm, [XX, Z01])
        assert groups_equal(M, expected)
        assert logical_dimension(M) == 1

    def test_measure_requires_commuting_ops(self):
        sysm = QuditSystem([2])
        S = StabilizerGroup(sysm, [])
        with pytest.raises(NonCommutingError):
            measure(S, [single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)])

    def test_measure_trivial(self):
        sysm = QuditSystem([2])
        X = single(sysm, 0, "X", 1)
        S = StabilizerGroup(sysm, [X])
        M = measure(S, [X])
        assert groups_equal(M, S)

    def test_groups_equal_phase_sensitive(self):
        sysm = QuditSystem([2])
        X = single(sysm, 0, "X", 1)
        S1 = StabilizerGroup(sysm, [X])
        S2 = StabilizerGroup(sysm, [multiply(scalar(sysm, 2), X)])
        assert not groups_equal(S1, S2)
        assert groups_equal(S1, S1)

    def test_measure_qudit4_charge(self):
        # measuring X^2 on <Z> keeps only Z^2 and adds X^2
        sysm = QuditSystem([4])
        Z = single(sysm, 0, "Z", 1)
        S = StabilizerGroup(sysm, [Z])
        M = measure(S, [single(sysm, 0, "X", 2)])
        expected = StabilizerGroup(sysm, [single(sysm, 0, "Z", 2),
                                          single(sysm, 0, "X", 2)])
        assert groups_equal(M, expected)
