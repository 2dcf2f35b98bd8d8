"""Acceptance suite: the end-to-end claims every component must satisfy.

Each class checks one headline result with exact arithmetic; the whole file
is expected to run in well under five minutes.
"""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import commutes, dense_ground_space
from tqdstab import anyon, kmatrix
from tqdstab import lattice as lat
from tqdstab.circuitmap import (TriangularLattice, amplitude_psi, conjugate_qpp,
                                domain_wall_count, map_qudit_to_qubits,
                                table1_identity, uab_circuit, ucx_circuit)
from tqdstab.exactmath import IntMatrix, Rational01
from tqdstab.extraction import (JunctionSpec, crossing_braiding,
                                default_junction, extract_theory, spt_cocycle,
                                cocycle_is_valid, t_junction_theta)
from tqdstab.lattice import AnyonLabel, DS_PARAMS, TqdParams
from tqdstab.pauli import PauliOperator, QuditSystem, conjugate, single
from tqdstab.stabilizer import (StabilizerGroup, assert_commuting,
                                groups_equal, logical_dimension, measure,
                                scalar_consistency)

R = Rational01


@pytest.fixture(scope="module")
def ds33():
    return lat.build_ds(3, 3)


# ---------------------------------------------------------------------------
# 1. Double-semion model: commuting, fourfold degenerate, scalar-consistent
# ---------------------------------------------------------------------------


class TestDoubleSemionModel:
    @pytest.mark.parametrize("L", [3, 4])
    def test_small_tori(self, L):
        group, _ = lat.build_ds(L, L)
        assert not assert_commuting(group.system, group.generators)[0]
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == 4


# ---------------------------------------------------------------------------
# 2. Condensation by measurement reproduces the built group exactly
# ---------------------------------------------------------------------------


class TestCondensationByMeasurement:
    def test_measuring_edge_terms_on_z4_toric_code(self, ds33):
        group, model = ds33
        stack = lat.tc_stack_group(DS_PARAMS, 3, 3)
        measured = measure(stack, lat.ds_edge_terms(model))
        assert groups_equal(measured, group)


# ---------------------------------------------------------------------------
# 3. Semion statistics from T-junctions and crossings
# ---------------------------------------------------------------------------


class TestSemionStatistics:
    JUNCTIONS = [
        default_junction((0, 0)),
        default_junction((1, 1)),
        JunctionSpec((0, 0), (("E",), ("N",), ("W",))),
    ]

    @pytest.mark.parametrize("junction", JUNCTIONS)
    def test_theta_invariant_across_placements(self, ds33, junction):
        _, model = ds33
        assert t_junction_theta(model, "s", junction) == R(1, 4)
        assert t_junction_theta(model, "sbar", junction) == R(3, 4)
        assert t_junction_theta(model, "ssbar", junction) == R(0)

    def test_braiding(self, ds33):
        _, model = ds33
        assert crossing_braiding(model, "s", "s") == R(1, 2)
        assert crossing_braiding(model, "s", "sbar") == R(0)


# ---------------------------------------------------------------------------
# 4. Z4 toric-code exchange statistics
# ---------------------------------------------------------------------------


class TestZ4ToricCodeStatistics:
    def test_all_sixteen_anyons(self):
        _, model = lat.build_zn_tc(4, 3, 3)
        for p in range(4):
            for q in range(4):
                lab = AnyonLabel((q,), (p,))
                assert t_junction_theta(model, lab) == R(p * q, 4)


# ---------------------------------------------------------------------------
# 5. Four-way agreement for twisted-double parameters
# ---------------------------------------------------------------------------


FIVE_PARAMS = [
    TqdParams([2], [1]),
    TqdParams([2], [0]),
    TqdParams([3], [1]),
    TqdParams([2, 2], [0, 0], {(0, 1): 1}),
    TqdParams([2, 2], [1, 1], {(0, 1): 1}),
]


class TestFourWayAgreement:
    @pytest.mark.parametrize("params", FIVE_PARAMS,
                             ids=lambda p: f"N{list(p.N)}-n{list(p.n)}")
    def test_lattice_direct_condensed_and_k(self, params):
        group, model = lat.build_tqd(params, 3, 3)
        assert not assert_commuting(group.system, group.generators)[0]
        expected_dim = 1
        for N in params.N:
            expected_dim *= N * N
        assert logical_dimension(group) == expected_dim

        extracted = extract_theory(model).theory
        direct = anyon.tqd_theory(params.N, params.n, params.nij)
        from_k = kmatrix.theory_from_k(kmatrix.build_k_tqd(params))
        _, iso_condensed = anyon.stack_condense_to_tqd(params)
        assert anyon.theories_isomorphic(extracted, direct)
        assert anyon.theories_isomorphic(direct, from_k)
        assert bool(iso_condensed)


# ---------------------------------------------------------------------------
# 6. Six-semion census
# ---------------------------------------------------------------------------


SIX_SEMION = TqdParams([2, 2], [1, 1], {(0, 1): 1})
SIX_SEMION_CENSUS = {"0/1": 4, "1/4": 6, "3/4": 6}


class TestSixSemionCensus:
    def test_from_k_matrix(self):
        census = kmatrix.census(kmatrix.build_k_tqd(SIX_SEMION))
        assert census == SIX_SEMION_CENSUS

    def test_from_lattice_extraction(self):
        _, model = lat.build_tqd(SIX_SEMION, 3, 3)
        theory = extract_theory(model).theory
        assert anyon.topological_spins_census(theory) == SIX_SEMION_CENSUS


# ---------------------------------------------------------------------------
# 7. K-matrix identities
# ---------------------------------------------------------------------------


def random_params(rng, max_m=3):
    prime_powers = [2, 3, 4, 5, 7, 8, 9]
    m = rng.randint(1, max_m)
    N = sorted(rng.choice(prime_powers) for _ in range(m))
    n = [rng.randrange(N[i]) for i in range(m)]
    from math import gcd
    nij = {(i, j): rng.randrange(gcd(N[i], N[j]))
           for i in range(m) for j in range(i + 1, m)}
    return TqdParams(N, n, nij)


class TestKMatrixIdentities:
    @pytest.mark.parametrize("params", FIVE_PARAMS,
                             ids=lambda p: f"N{list(p.N)}-n{list(p.n)}")
    def test_inverse_block_formula(self, params):
        # K = [[0, N], [N, -S]]  =>  K^-1 = [[N^-1 S N^-1, N^-1], [N^-1, 0]].
        M = params.M
        K = kmatrix.build_k_tqd(params)
        kinv = kmatrix.k_inverse(K)
        S = kmatrix.coupling_matrix(params)
        for i in range(M):
            for j in range(M):
                assert kinv[i][j] == Fraction(S[i, j],
                                              params.N[i] * params.N[j])
                assert kinv[i][M + j] == (Fraction(1, params.N[i])
                                          if i == j else 0)
                assert kinv[M + i][M + j] == 0

    def test_condensation_identities_fuzzed(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 50:
            params = random_params(rng)
            cm = kmatrix.condensation_matrices(params)
            assert cm.all_identities_hold, (params, cm.report)
            checked += 1

    def test_explicit_change_of_basis(self):
        # The coupled two-layer K splits into Z4-toric-code and trivial
        # blocks under this integer change of basis.
        K = kmatrix.build_k_tqd(TqdParams([2, 2], [0, 0], {(0, 1): 1}))
        W = IntMatrix([[1, 0, 0, 0],
                       [0, 1, 0, 0],
                       [0, 2, 0, -1],
                       [2, 0, 1, 0]])
        WT = IntMatrix([[W[j, i] for j in range(4)] for i in range(4)])
        out = kmatrix.transform(K, WT)
        assert out.tolist() == [[0, 4, 0, 0],
                                [4, 0, 0, 0],
                                [0, 0, 0, 1],
                                [0, 0, 1, 0]]


# ---------------------------------------------------------------------------
# 8. Fusion groups by two independent routes
# ---------------------------------------------------------------------------


class TestFusionGroups:
    def test_headline_groups(self):
        assert anyon.fusion_group(TqdParams([2], [1])) == [2, 2]
        assert anyon.fusion_group(TqdParams([3], [1])) == [9]
        assert anyon.fusion_group(
            TqdParams([2, 2], [0, 0], {(0, 1): 1})) == [4, 4]

    def test_untwisted_is_g_times_g(self):
        assert anyon.fusion_group(TqdParams([2, 3], [0, 0])) == [6, 6]
        assert anyon.fusion_group(TqdParams([2, 2], [0, 0])) == [2, 2, 2, 2]

    @pytest.mark.parametrize("N,n,nij", [
        ([2], [1], None),
        ([2], [0], None),
        ([3], [1], None),
        ([4], [1], None),
        ([2, 2], [0, 0], {(0, 1): 1}),
        ([2, 2], [1, 1], {(0, 1): 1}),
        ([2, 4], [1, 1], {(0, 1): 1}),
        ([3, 3], [1, 2], {(0, 1): 2}),
        ([2, 2, 2], [1, 0, 1], {(0, 1): 1, (1, 2): 1}),
    ])
    def test_routes_agree(self, N, n, nij):
        params = TqdParams(N, n, nij)
        direct = anyon.fusion_group(params)
        via_cocycle = anyon.fusion_group_from_cocycle(params)
        assert direct == via_cocycle


# ---------------------------------------------------------------------------
# 9. SPT model and its boundary cocycle
# ---------------------------------------------------------------------------


class TestSptModel:
    @pytest.mark.parametrize("L", [3, 4])
    def test_unique_ground_state(self, L):
        group, _ = lat.build_spt(L, L)
        assert not assert_commuting(group.system, group.generators)[0]
        assert logical_dimension(group) == 1

    def test_global_flip_commutes(self):
        group, model = lat.build_spt(3, 3)
        t = model.lattice
        flip = PauliOperator(model.system, x={
            t.vertex_site(x, y): 1 for y in range(3) for x in range(3)})
        assert all(commutes(flip, g) for g in group.generators)

    def test_boundary_cocycle(self):
        _, model = lat.build_spt(7, 5)
        table = spt_cocycle(model, 4)
        assert table[(1, 1, 1)] == R(1, 2)  # the -1 entry
        for key, val in table.items():
            if key != (1, 1, 1):
                assert val.is_zero()
        assert cocycle_is_valid(table)


# ---------------------------------------------------------------------------
# 10. Amplitude identity and circuit conjugation
# ---------------------------------------------------------------------------


def embedded_ds(tri):
    """The double-semion group re-indexed onto the h/v edges of `tri`,
    plus <X^2, Z^2> ancilla stabilizers on every diagonal edge."""
    L = tri.L
    system = QuditSystem([4] * (3 * L * L))
    group, _ = lat.build_ds(L, L)

    def remap_site(s):
        cell, orient = divmod(s, 2)  # square order: H=0, V=1 per cell
        return cell * 3 + orient     # triangular order: h, v, d per cell

    ds_gens = [PauliOperator(system, phase=g.phase,
                             x={remap_site(s): e for s, e in g.x.items()},
                             z={remap_site(s): e for s, e in g.z.items()})
               for g in group.generators]
    ancilla = []
    for cell in range(L * L):
        d = cell * 3 + 2
        ancilla.append(PauliOperator(system, x={d: 2}))
        ancilla.append(PauliOperator(system, z={d: 2}))
    return system, ds_gens, ancilla


class TestAmplitudeAndCircuits:
    def test_psi_equals_domain_wall_parity_exhaustively(self):
        tri = TriangularLattice(3)
        verts = tri.vertices()
        for bits in itertools.product((0, 1), repeat=9):
            b = dict(zip(verts, bits))
            assert amplitude_psi(tri, b) == (-1) ** domain_wall_count(tri, b)

    def test_eigenvalue_table(self):
        table = table1_identity()
        assert table["agree"]
        assert [(cfg, cz) for cfg, cz, _ in table["rows"]] == [
            ((0, 0, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), -1), ((1, 1, 0), 1)]

    def test_cx_layer_conjugation_shapes(self):
        tri = TriangularLattice(3)
        system, ds_gens, ancilla = embedded_ds(tri)
        circ = ucx_circuit(tri)
        conj_ds = [conjugate(g, circ) for g in ds_gens]
        conj_anc = [conjugate(g, circ) for g in ancilla]

        # The conjugated set is still a commuting, fourfold-degenerate code.
        big = StabilizerGroup(system, conj_ds + conj_anc)
        assert logical_dimension(big) == 4

        # X^2 on a diagonal is invariant; Z^2 becomes the Z^2 triangle of
        # its upward face.
        for cell in range(9):
            x, y = cell % 3, cell // 3
            e12, e23, e13 = (tri.edge_index(e)
                             for e in tri.face_edges(("up", x, y)))
            assert conj_anc[2 * cell] == ancilla[2 * cell]
            assert conj_anc[2 * cell + 1] == PauliOperator(
                system, z={e12: 2, e23: 2, e13: 2})

        # Square-lattice terms keep their h/v content and only pick up
        # X factors on diagonal edges.
        for g, cg in zip(ds_gens, conj_ds):
            assert {s: e for s, e in cg.x.items() if s % 3 != 2} == dict(g.x)
            assert {s: e for s, e in cg.z.items() if s % 3 != 2} == dict(g.z)
            assert all(s % 3 == 2 for s in cg.support - g.support)

        # Empty circuit: identity map.
        assert conjugate(ds_gens[0], []) == ds_gens[0]

    def test_cz_layer_collapses_edge_terms(self):
        tri = TriangularLattice(3)
        system, ds_gens, _ = embedded_ds(tri)
        circ = ucx_circuit(tri)
        uab = uab_circuit(tri)
        # Builder order: 9 vertex terms, 9 plaquette terms, then 18 edge
        # terms (V then H per cell).
        edge_terms = ds_gens[18:]
        for idx, term in enumerate(edge_terms):
            cell, which = divmod(idx, 2)
            own_edge = cell * 3 + (1 - which)  # V first, then H
            image = conjugate_qpp(map_qudit_to_qubits(conjugate(term, circ)),
                                  uab)
            assert image.phase == 0 and not image.lam
            # The image is X^B on the term's own edge times X^B on one
            # diagonal; the latter is an ancilla stabilizer image and is
            # absorbed into the term definition.
            assert (own_edge, "B") in image.x
            extras = image.x - {(own_edge, "B")}
            assert len(extras) == 1
            (extra_site, extra_half), = extras
            assert extra_half == "B" and extra_site % 3 == 2

    def test_x_control_image_under_cz_layer(self):
        tri = TriangularLattice(3)
        uab = uab_circuit(tri)
        e12, e23, _ = (tri.edge_index(e)
                       for e in tri.face_edges(("up", 0, 0)))
        op = map_qudit_to_qubits(
            single(QuditSystem([4] * 27), e12, "X", 2))
        out = conjugate_qpp(op, uab)
        assert out.x == frozenset({(e12, "B")})  # X^2 -> X^B, CZ-invariant


# ---------------------------------------------------------------------------
# 11. Dense ground-space oracle
# ---------------------------------------------------------------------------


class TestDenseOracle:
    def test_double_semion_2x2(self):
        group, _ = lat.build_ds(2, 2)
        dim, _ = dense_ground_space(group)
        assert dim == logical_dimension(group) == 4

    def test_z2_toric_code_2x2(self):
        group, _ = lat.build_zn_tc(2, 2, 2)
        dim, _ = dense_ground_space(group)
        assert dim == logical_dimension(group) == 4

    def test_single_qudit_x2_z2(self):
        system = QuditSystem([4])
        group = StabilizerGroup(system, [single(system, 0, "X", 2),
                                         single(system, 0, "Z", 2)])
        dim, _ = dense_ground_space(group)
        assert dim == logical_dimension(group) == 1
