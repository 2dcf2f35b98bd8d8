"""Tests for stabilizer-group machinery, with brute-force closure oracles."""

import os
import random
import subprocess
import sys
from array import array
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (combination_phases, commutation_pairs_by_all_pairs,
                     commutes, groups_equal_by_members, kernel_generators,
                     kernel_phases_by_products, kernel_table, lifted,
                     member_with_phase_by_products)

from tqdstab import exactmath, pauli, stabilizer
from tqdstab.exactmath import Rational01
from tqdstab.extraction import spt_report
from tqdstab.lattice import (DS_PARAMS, TqdParams, build_ds, build_hatted_ds,
                             build_spt, build_tqd, build_zn_tc,
                             condensation_equal)
from tqdstab.pauli import (PauliOperator, QuditSystem, multiply,
                           product_of_powers, scalar, single)
from tqdstab.stabilizer import (InconsistentGroupError, NonCommutingError,
                                SolverCheckError, StabilizerGroup,
                                assert_commuting,
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
                        lambda system, generators: calls.append(generators)
                        or original(system, generators))
    return calls


def forbid_products(monkeypatch):
    """Make every route to a product of generator powers raise."""
    def refuse(*args):
        raise AssertionError("operator product taken")

    for module in (pauli, stabilizer):
        monkeypatch.setattr(module, "product_of_powers", refuse)
    monkeypatch.setattr(StabilizerGroup, "combination", refuse)


@st.composite
def sparse_groups(draw):
    """A system and generator lists of low weight on it, mixed dimensions:
    many pairs share no site, and some pairs fail to commute."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1,
                         max_size=6))
    sysm = QuditSystem(dims)
    exps = st.dictionaries(st.sampled_from(range(len(dims))),
                           st.integers(-4, 4), max_size=2)
    gens = [PauliOperator(sysm, phase=draw(st.integers(0, 23)),
                          x=draw(exps), z=draw(exps))
            for _ in range(draw(st.integers(0, 8)))]
    return sysm, gens


class TestConstruction:
    def test_commuting_validation(self):
        sysm = QuditSystem([2])
        X, Z = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        with pytest.raises(NonCommutingError):
            StabilizerGroup(sysm, [X, Z])
        assert assert_commuting(sysm, [X, Z])[0] == [(0, 1)]

    def test_system_mismatch(self):
        with pytest.raises(ValueError):
            StabilizerGroup(QuditSystem([2]),
                            [single(QuditSystem([3]), 0, "X", 1)])

    def test_lone_operator_on_another_system_is_refused(self):
        # it shares no site with another operator, so only the up-front
        # check sees it
        other = PauliOperator(QuditSystem([3, 3]), x={1: 1})
        with pytest.raises(ValueError, match="system mismatch"):
            assert_commuting(QuditSystem([2]), [other])

    def test_json_round_trip(self):
        sysm = QuditSystem([2, 4])
        S = StabilizerGroup(sysm, [
            PauliOperator(sysm, phase=3, x={0: 1}, z={1: 2}),
            PauliOperator(sysm, x={1: 2}),
        ])
        S2 = StabilizerGroup.from_json_dict(
            __import__("json").loads(S.to_json()))
        assert S2.system.dims == S.system.dims
        assert S2.generators == S.generators

    def test_json_with_noncommuting_generators_is_rejected(self):
        data = {"dims": [2], "generators": [{"x": {"0": 1}}, {"z": {"0": 1}}]}
        with pytest.raises(NonCommutingError, match=r"\(0, 1\)"):
            StabilizerGroup.from_json_dict(data)

    def test_lifted_scales_each_site_into_z_d(self):
        # x exponents, then z exponents, each times D / d_q (D = 6)
        sysm = QuditSystem([2, 3, 6])
        S = StabilizerGroup(sysm, [])
        P = PauliOperator(sysm, phase=1, x={0: 1, 2: 5}, z={1: 2, 2: 3})
        lanes = exactmath._Lanes(6)
        assert lanes.read(S._packed(P, lanes.width), 6) == [3, 0, 5, 0, 4, 3]
        assert lifted(S, P) == [3, 0, 5, 0, 4, 3]
        assert S._packed(PauliOperator(sysm), lanes.width) == 0


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

    def test_noncommuting_rejected(self, monkeypatch):
        sysm = QuditSystem([2])
        calls = count_commuting_checks(monkeypatch)
        with pytest.raises(NonCommutingError, match=r"\(0, 1\)"):
            StabilizerGroup(sysm, [single(sysm, 0, "X", 1),
                                   single(sysm, 0, "Z", 1)])
        assert len(calls) == 1  # the pairwise check ran once, when made

    def test_builder_group_is_not_rechecked(self, monkeypatch):
        groups = [build_ds(3, 3)[0], build_tqd(DS_PARAMS, 3, 3)[0]]
        calls = count_commuting_checks(monkeypatch)
        assert [logical_dimension(g) for g in groups] == [4, 4]
        assert calls == []

    @pytest.mark.parametrize("run,passes", [
        (lambda: logical_dimension(build_ds(4, 4)[0]), 1),
        # the stack, the measured group and the twisted model
        (lambda: condensation_equal(TqdParams([2], [1]), 4, 4), 3),
        # the model and the R-supported group
        (lambda: spt_report(build_spt(7, 5)[1], 4), 2),
        (lambda: groups_equal(build_ds(4, 4)[0],
                              build_tqd(TqdParams([2], [0]), 4, 4)[0]), 2),
    ], ids=["degeneracy", "condensation", "spt", "groups-equal"])
    def test_one_pass_per_group_made(self, monkeypatch, run, passes):
        # centralizer generators make no group
        calls = count_commuting_checks(monkeypatch)
        run()
        assert len(calls) == passes

    @given(sparse_groups())
    @settings(max_examples=120, deadline=None)
    def test_site_index_finds_the_all_pairs_list(self, drawn):
        sysm, gens = drawn
        assert assert_commuting(sysm, gens) == commutation_pairs_by_all_pairs(
            gens)

    @pytest.mark.parametrize("build", [
        build_ds, lambda Lx, Ly: build_tqd(TqdParams([2, 3], [1, 1]), Lx, Ly),
        lambda Lx, Ly: build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}),
                                 Lx, Ly),
        build_spt, build_hatted_ds,
    ], ids=["ds", "tqd23", "tqd22-twisted", "spt", "hatted-ds"])
    @pytest.mark.parametrize("size", [(3, 3), (4, 3)], ids=["3x3", "4x3"])
    def test_sweep_matches_all_pairs_on_builds(self, build, size):
        # N=[2,3] has D = 36 and site weights D/d_s of 9 and 4
        group, _ = build(*size)
        bad, odd = assert_commuting(group.system, group.generators)
        assert not bad and odd
        assert (bad, odd) == commutation_pairs_by_all_pairs(group.generators)

    @pytest.mark.parametrize("z1,odd", [(1, [0, 1]), (3, [])],
                             ids=["odd-multiple", "cancels"])
    def test_two_shared_sites_are_summed(self, z1, odd):
        # D = 4: the site terms 2 and 2 z1 are each nonzero mod D; they sum
        # to D (an odd pair, which commutes) or to 2D (nothing to record)
        sysm = QuditSystem([2, 4])
        gens = [PauliOperator(sysm, x={0: 1, 1: 2}),
                PauliOperator(sysm, z={0: 1, 1: z1})]
        assert assert_commuting(sysm, gens) == ([], array("I", odd))
        assert commutation_pairs_by_all_pairs(gens) == ([], array("I", odd))

    def test_site_index_reports_noncommuting_pairs_in_order(self):
        sysm = QuditSystem([2, 4, 2])
        X0, Z0 = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        Z1, X1 = single(sysm, 1, "Z", 2), single(sysm, 1, "X", 1)
        gens = [Z1, X0, single(sysm, 2, "X", 1), X1, Z0, multiply(X0, X1)]
        expected = [(0, 3), (0, 5), (1, 4), (4, 5)]
        assert commutation_pairs_by_all_pairs(gens)[0] == expected
        assert assert_commuting(sysm, gens)[0] == expected
        with pytest.raises(NonCommutingError, match=r"\(0, 3\)"):
            StabilizerGroup(sysm, gens)

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
    """The builders' one solver and what it eliminates."""

    def test_builder_computes_the_wide_howell_form_once(self, monkeypatch):
        widths = []
        original = exactmath.howell_form

        def counting(rows, big, **kwargs):
            widths.append(len(rows[0]) if rows else 0)
            return original(rows, big, **kwargs)

        monkeypatch.setattr(exactmath, "howell_form", counting)
        group, model = build_ds(4, 4)
        assert logical_dimension(group) == 4
        wide = 2 * group.system.n_sites + len(group.generators)
        assert widths.count(wide) == 1

    @pytest.mark.parametrize("build", [
        lambda: build_ds(4, 4),
        lambda: build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}), 4, 3),
        lambda: build_spt(4, 4),
        lambda: build_hatted_ds(4, 3),
    ], ids=["ds", "tqd22-twisted", "spt", "hatted-ds"])
    def test_twisted_build_runs_one_howell_form(self, monkeypatch, build):
        # the vertex-term phases are written, not solved for: the build's
        # scalar check and logical_dimension share the group's one form
        calls = []
        original = exactmath.howell_form

        def counting(rows, big, **kwargs):
            calls.append(big)
            return original(rows, big, **kwargs)

        monkeypatch.setattr(exactmath, "howell_form", counting)
        group, _ = build()
        logical_dimension(group)
        assert len(calls) == 1

    def test_counting_never_reduces_the_identity_block(self):
        # The builder's scalar check and logical_dimension read M-block pivots
        # and kernel generators only, so no identity-block column is ever
        # eliminated (DS has relations, so a finished form would have some).
        group, _ = build_ds(4, 4)
        assert logical_dimension(group) == 4
        solver = group._get_solver()
        m = 2 * group.system.n_sites
        assert solver._pivots
        assert all(col < m for _, col, _ in solver._pivots)
        assert "_kernel_form" not in vars(solver)
        columns = [lifted(group, g) for g in group.generators]
        finished = exactmath.ModSolver(columns, solver.moduli)
        finished.kernel_basis()
        assert finished._kernel_form[1]


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
            "ModSolver.solve_packed = lambda self, w: 1\n"
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


KERNEL_BUILDS = {
    "ds": build_ds,
    "tc3": lambda Lx, Ly: build_zn_tc(3, Lx, Ly),
    "tc6": lambda Lx, Ly: build_zn_tc(6, Lx, Ly),
    # D = 8: solver lanes of 8 bits, phase lanes (mod 16) of 16 bits
    "tc8": lambda Lx, Ly: build_zn_tc(8, Lx, Ly),
    "tqd3-n1": lambda Lx, Ly: build_tqd(TqdParams([3], [1]), Lx, Ly),
    "tqd3-n2": lambda Lx, Ly: build_tqd(TqdParams([3], [2]), Lx, Ly),
    "tqd4": lambda Lx, Ly: build_tqd(TqdParams([4], [1]), Lx, Ly),
    "tqd5": lambda Lx, Ly: build_tqd(TqdParams([5], [1]), Lx, Ly),
    "tqd22-twisted": lambda Lx, Ly: build_tqd(
        TqdParams([2, 2], [1, 1], {(0, 1): 1}), Lx, Ly),
    "tqd24-twisted": lambda Lx, Ly: build_tqd(
        TqdParams([2, 4], [1, 1], {(0, 1): 1}), Lx, Ly),
    "tqd33-twisted": lambda Lx, Ly: build_tqd(
        TqdParams([3, 3], [1, 1], {(0, 1): 1}), Lx, Ly),
    "spt": build_spt,
    "hatted-ds": build_hatted_ds,
}


@lru_cache(maxsize=None)
def kernel_build(name, size):
    return KERNEL_BUILDS[name](*size)[0]


class TestKernelPhaseClosedForm:
    """The closed-form kernel table against multiplying out every kernel
    generator (tests/oracles.py), vectors and phases."""

    @pytest.mark.parametrize("size", [(3, 3), (4, 3)], ids=str)
    @pytest.mark.parametrize("name", sorted(KERNEL_BUILDS))
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_table_equals_products(self, name, size, seed):
        group = kernel_build(name, size)
        rng = random.Random(seed)
        assert kernel_table(group) == kernel_phases_by_products(group)
        two_d = 2 * group.system.D
        gens = [multiply(scalar(group.system, rng.randrange(two_d)), g)
                for g in group.generators]
        fresh = StabilizerGroup(group.system, gens)
        table = kernel_table(fresh)
        assert table == kernel_phases_by_products(fresh)
        assert any(phase for _, phase in table)

    @pytest.mark.parametrize("name", ["ds", "tqd3-n1", "spt"])
    def test_corrupted_kernel_vector_is_rejected(self, monkeypatch, name):
        group = kernel_build(name, (3, 3))
        kernel_rows = exactmath.ModSolver.kernel_rows

        def corrupted(self):
            rows = kernel_rows(self)
            row = self._lanes.read(rows[len(rows) // 4], self._n)
            row[len(row) // 2] = (row[len(row) // 2] + 1) % self.big
            rows[len(rows) // 4] = self._lanes.pack(row)
            return rows

        monkeypatch.setattr(exactmath.ModSolver, "kernel_rows", corrupted)
        S = StabilizerGroup(group.system, group.generators)
        with pytest.raises(SolverCheckError, match="not scalar"):
            S._get_kernel_phases()

    def test_table_multiplies_no_combinations(self, monkeypatch):
        # Not even the k single-generator powers g^big are multiplied out.
        group = kernel_build("tqd22-twisted", (3, 3))
        forbid_products(monkeypatch)
        S = StabilizerGroup(group.system, group.generators)
        assert scalar_consistency(S).consistent


def random_element(rng, gens, system):
    """A random scalar times a random product of powers of gens."""
    return multiply(scalar(system, rng.randrange(2 * system.D)),
                    product_of_powers(system, [(g, rng.randrange(-3, 6))
                                               for g in gens]))


def equivalent_generators(rng, gens):
    """Another generating set of <gens>: shuffled, each generator times
    powers of those after it (a unimodular change)."""
    gens = list(gens)
    rng.shuffle(gens)
    system = gens[0].system if gens else None
    return [product_of_powers(system, [(g, 1)] + [(h, rng.randrange(3))
                                                  for h in gens[i + 1:]])
            for i, g in enumerate(gens)]


@st.composite
def phased_groups(draw):
    """A commuting group on odd, even and mixed dimensions with random
    generator phases, plus redundant generators (scalars times products of
    the others) whose kernel vectors carry phases that membership folds."""
    rng = draw(st.randoms(use_true_random=False))
    dims = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 9]), min_size=1,
                         max_size=3))
    base = random_commuting_group(rng, dims, rng.randrange(1, 5))
    system, two_d = base.system, 2 * base.system.D
    gens = [multiply(scalar(system, rng.randrange(two_d)), g)
            for g in base.generators]
    for _ in range(rng.randrange(3)):
        gens.append(random_element(rng, gens, system))
    rng.shuffle(gens)
    return rng, StabilizerGroup(system, gens)


def membership_targets(rng, S):
    """Group elements with random scalars (Member, MemberUpToPhase and fold
    cases), the generators themselves, and random Paulis (mostly
    non-members)."""
    system = S.system
    targets = [random_element(rng, S.generators, system) for _ in range(4)]
    targets += S.generators[:3]
    for _ in range(2):
        sites = rng.sample(range(system.n_sites), min(2, system.n_sites))
        targets.append(PauliOperator(
            system, phase=rng.randrange(2 * system.D),
            x={s: rng.randrange(system.dims[s]) for s in sites},
            z={s: rng.randrange(system.dims[s]) for s in sites}))
    return targets


class TestClosedFormMembership:
    """member_with_phase and groups_equal, which read combination phases
    in closed form, against multiplying the combinations out
    (tests/oracles.py)."""

    @given(phased_groups())
    @settings(max_examples=150, deadline=None)
    def test_membership_equals_products(self, drawn):
        rng, S = drawn
        for P in membership_targets(rng, S):
            assert member_with_phase(S, P) == member_with_phase_by_products(
                S, P)

    @given(phased_groups(), st.sampled_from(
        ["same", "phase", "drop", "scalar", "extra"]))
    @settings(max_examples=150, deadline=None)
    def test_groups_equal_equals_both_directions(self, drawn, change):
        rng, S2 = drawn
        system, two_d = S2.system, 2 * S2.system.D
        gens = equivalent_generators(rng, S2.generators)
        if gens and change == "phase":
            i = rng.randrange(len(gens))
            gens[i] = multiply(scalar(system, rng.randrange(1, two_d)),
                               gens[i])
        elif gens and change == "drop":
            gens.pop(rng.randrange(len(gens)))
        elif change == "scalar":
            gens.append(scalar(system, rng.randrange(two_d)))
        elif change == "extra":
            site = rng.randrange(system.n_sites)
            extra = single(system, site, "Z", 1)
            if all(commutes(extra, g) for g in gens):
                gens.append(extra)
        S1 = StabilizerGroup(system, gens)
        expected = groups_equal_by_members(S1, S2)
        assert groups_equal(S1, S2) == expected
        assert groups_equal(S2, S1) == expected

    @pytest.mark.parametrize("name", sorted(KERNEL_BUILDS))
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_builders_equal_products(self, name, seed):
        group = kernel_build(name, (3, 3))
        rng = random.Random(seed)
        for P in membership_targets(rng, group):
            assert member_with_phase(group, P) == (
                member_with_phase_by_products(group, P))
        gens = equivalent_generators(rng, group.generators)
        flip = rng.randrange(2)
        if flip:
            gens[0] = multiply(scalar(group.system, group.system.D), gens[0])
        other = StabilizerGroup(group.system, gens)
        expected = groups_equal_by_members(other, group)
        assert expected == (not flip)
        assert groups_equal(other, group) == expected

    @pytest.mark.parametrize("phases,flip", [((0, 0), 2), ((0, 0, 2), 1)])
    def test_flipped_phase_is_not_equal(self, phases, flip):
        # equal images and equal scalar subgroups ({1}, then {1, -1} from
        # X0 and -X0), but Z1 rephased by -1 or by i
        sysm = QuditSystem([2, 2])
        X0, Z1 = single(sysm, 0, "X", 1), single(sysm, 1, "Z", 1)
        gens = [multiply(scalar(sysm, p), g)
                for p, g in zip(phases, [X0, Z1, X0])]
        S = StabilizerGroup(sysm, gens)
        gens[1] = multiply(scalar(sysm, flip), Z1)
        flipped = StabilizerGroup(sysm, gens)
        assert group_order(flipped) == group_order(S)
        assert S._scalar_step() == flipped._scalar_step()
        assert not groups_equal(flipped, S)
        assert not groups_equal(S, flipped)
        assert not groups_equal_by_members(S, flipped)

    def test_different_scalars_are_not_equal(self):
        # [X] and [X, -X] have one image, but only the second holds -1
        sysm = QuditSystem([2])
        X = single(sysm, 0, "X", 1)
        S1 = StabilizerGroup(sysm, [X])
        S2 = StabilizerGroup(sysm, [X, multiply(scalar(sysm, 2), X)])
        assert group_order(S1) == group_order(S2)
        assert not groups_equal(S1, S2)
        assert not groups_equal(S2, S1)
        assert not groups_equal_by_members(S1, S2)

    @pytest.mark.parametrize("check", ["member", "equal"])
    def test_wrong_solve_raises(self, monkeypatch, check):
        group = kernel_build("tqd3-n1", (3, 3))
        other = StabilizerGroup(group.system, group.generators)
        solve = exactmath.ModSolver.solve_packed

        def wrong(self, w):
            x = solve(self, w)
            if x is not None:  # one more in the middle lane
                x += 1 << self._n // 2 * self._lanes.width
            return x

        monkeypatch.setattr(exactmath.ModSolver, "solve_packed", wrong)
        with pytest.raises(SolverCheckError, match="not scalar"):
            if check == "member":
                member_with_phase(group, group.generators[7])
            else:
                groups_equal(other, group)

    def test_no_operator_products(self, monkeypatch):
        group = kernel_build("tqd22-twisted", (3, 3))
        rng = random.Random(7)
        targets = membership_targets(rng, group)
        expected = [member_with_phase_by_products(group, P) for P in targets]
        other = StabilizerGroup(group.system,
                                equivalent_generators(rng, group.generators))
        forbid_products(monkeypatch)
        S = StabilizerGroup(group.system, group.generators)
        assert [member_with_phase(S, P) for P in targets] == expected
        assert groups_equal(other, S)


def extreme_pow2_group():
    """A commuting group on dims 2, 2, 4, 4, 16, 16 (D = 16, packed mod
    2D = 32) whose exponents are mostly d - 1 and whose phases are all
    2D - 1: the largest lane values the packed passes multiply. Per pair
    (a, b) of dimension d: A = X_a^{d-1} X_b, B = Z_a^{d-1} Z_b^{d-1}, and
    C with A's and B's exponents (a kernel vector with a phase); then the
    products of all A's and of all B's."""
    dims = [2, 2, 4, 4, 16, 16]
    system = QuditSystem(dims)
    top = 2 * system.D - 1
    per_pair = []
    for a in range(0, len(dims), 2):
        d, b = dims[a], a + 1
        per_pair.append(({a: d - 1, b: 1}, {a: d - 1, b: d - 1}))
    gens = []
    for x, z in per_pair:
        gens += [PauliOperator(system, phase=top, x=x),
                 PauliOperator(system, phase=top, z=z),
                 PauliOperator(system, phase=top, x=x, z=z)]
    for part in (0, 1):
        exps = {s: e for pair in per_pair for s, e in pair[part].items()}
        gens.append(PauliOperator(system, phase=top,
                                  **{"xz"[part]: exps}))
    return StabilizerGroup(system, gens)


class TestMixedPowerOfTwoExtremes:
    """The packed phase passes on 16-bit lanes mod 32 at their largest
    values, against multiplying the combinations out."""

    def test_kernel_table_equals_products(self):
        S = extreme_pow2_group()
        assert exactmath._Lanes(2 * S.system.D).width == 16
        table = kernel_table(S)
        assert table == kernel_phases_by_products(S)
        assert any(phase for _, phase in table)

    @given(st.lists(st.lists(st.sampled_from([-1, 29, 30, 31, 32, 33]),
                             min_size=11, max_size=11),
                    min_size=1, max_size=6),
           st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_combination_phases_equal_products(self, vectors, phase):
        S = extreme_pow2_group()
        system, gens = S.system, S.generators
        products = [product_of_powers(system, list(zip(gens, vec)))
                    for vec in vectors]
        assert combination_phases(S, vectors, products) == [
            P.phase for P in products]
        for P in products:
            P = multiply(scalar(system, phase), P)
            assert member_with_phase(S, P) == member_with_phase_by_products(
                S, P)


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
        reads, calls = [], []
        kernel_rows = exactmath.ModSolver.kernel_rows
        monkeypatch.setattr(exactmath.ModSolver, "kernel_rows",
                            lambda self: reads.append(self)
                            or kernel_rows(self))
        original = StabilizerGroup.combination
        monkeypatch.setattr(StabilizerGroup, "combination",
                            lambda self, vec: calls.append(vec)
                            or original(self, vec))
        assert not scalar_consistency(S).consistent
        assert reads == [S._get_solver()]
        for target in (scalar(sysm, 2), X):
            res = member_with_phase(S, target)
            assert res.is_member
            assert original(S, res.coefficients) == target
        assert len(reads) == 1
        assert [vec for vec, _ in kernel_table(S)] == (
            kernel_generators(S._get_solver()))
        # the solve and the fold are re-checked in closed form
        assert calls == []

    @pytest.mark.parametrize("build", [
        lambda: build_ds(3, 3),
        lambda: build_tqd(TqdParams([2, 2], [1, 1], [[0, 1], [1, 0]]), 3, 3),
    ], ids=["ds-3x3", "tqd22-twisted-3x3"])
    def test_sparse_products_match_combination(self, build):
        # The table's closed form (one power for each big * e_i) against
        # full generator-order combinations, on a group whose first vertex
        # term carries an extra phase so that some kernel phases are
        # nonzero.
        group, _ = build()
        gens = list(group.generators)
        gens[0] = multiply(scalar(group.system, 1), gens[0])
        S = StabilizerGroup(group.system, gens)
        table = kernel_table(S)
        assert any(phase for _, phase in table)
        assert table == [(vec, S.combination(vec).phase)
                         for vec in kernel_generators(S._get_solver())]

    def test_power_row_reads_the_reordering_term(self):
        # g = X Z on a qubit: h = 1 is odd, so g^D = g^2 = -1 comes only
        # from the D (D - 1) h term of the trailing D * e_0 row
        sysm = QuditSystem([2])
        S = StabilizerGroup(sysm, [PauliOperator(sysm, x={0: 1}, z={0: 1})])
        assert kernel_table(S) == kernel_phases_by_products(S) == [([2], 2)]
        assert scalar_consistency(S).witness == ((2,), 2)

    def test_rephased_group_computes_its_own_table(self):
        # The builder checks the group it makes: its kernel table is
        # already computed, and all zero.
        group, model = build_ds(3, 3)
        assert model.phase_fix == (2,)
        assert group._kernel_phases is not None
        assert not any(group._kernel_phases)
        assert scalar_consistency(group).consistent

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
    @pytest.mark.parametrize("build", [
        lambda: build_zn_tc(2, 3, 3),
        lambda: build_zn_tc(4, 3, 3),
        lambda: build_ds(3, 3),
        lambda: build_tqd(TqdParams([4], [3]), 3, 3),
        lambda: build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}), 3, 3),
        lambda: build_tqd(TqdParams([2, 3], [1, 1]), 3, 3),
        lambda: build_spt(3, 3),
        lambda: build_hatted_ds(3, 3),
    ], ids=["tc2", "tc4", "ds", "tqd4", "tqd22-twisted", "tqd23", "spt",
            "hatted-ds"])
    def test_site_indexed_columns_match_dense(self, build):
        # Only generator-probe pairs that share a site are evaluated; the
        # columns equal the dense table over every pair.
        group, _ = build()
        system = group.system
        n, dims = system.n_sites, system.dims
        rng = random.Random(23)
        probes = [scalar(system, 1)]
        for weight in [1] * 10 + [2] * 10 + [3] * 10 + [n]:
            sites = rng.sample(range(n), weight)
            probes.append(PauliOperator(
                system, x={s: rng.randrange(dims[s]) for s in sites},
                z={s: rng.randrange(dims[s]) for s in sites}))
        dense = [[pauli.commutation_exponent(g, probe) for probe in probes]
                 for g in group.generators]
        assert any(map(any, dense))
        assert stabilizer._commutation_columns(group, probes) == dense

    def test_centralizer_drops_anticommuting(self):
        sysm = QuditSystem([2, 2])
        X0, X1 = single(sysm, 0, "X", 1), single(sysm, 1, "X", 1)
        S = StabilizerGroup(sysm, [X0, X1])
        Z01 = PauliOperator(sysm, z={0: 1, 1: 1})
        C = centralizer_in_group(S, [Z01])
        for g in C:
            assert commutes(g, Z01)
            assert member_with_phase(S, g).verdict != "NotMember"
        # only <X0 X1> survives
        assert group_order(StabilizerGroup(sysm, C)) == 2

    def test_probe_on_another_system_is_refused(self):
        # its site 1 is no site of the group's one-qubit system
        sysm = QuditSystem([2])
        S = StabilizerGroup(sysm, [single(sysm, 0, "X", 1)])
        probe = PauliOperator(QuditSystem([3, 3]), z={1: 1})
        with pytest.raises(ValueError, match="system mismatch"):
            centralizer_in_group(S, [probe])

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
