"""Tests for the triangulation, cochains, amplitude identity, and the
qudit-to-qubit substitution machinery."""

import itertools
import random

import numpy as np
import pytest

import oracles
from oracles import dense_ground_space, qpp_dense
from tqdstab.circuitmap import (Cochain, OddXExponentError,
                                QuadraticPhaseOperator, TriangularLattice,
                                amplitude_psi, coboundary, conjugate_qpp,
                                domain_wall_count, map_qudit_to_qubits,
                                table1_identity, uaa_circuit, uab_circuit,
                                ucx_circuit)
from tqdstab.pauli import PauliOperator, QuditCX, QuditSystem, multiply, single
from tqdstab.stabilizer import StabilizerGroup


# ---------------------------------------------------------------------------
# Lattice structure
# ---------------------------------------------------------------------------


class TestTriangularLattice:
    def test_counts(self):
        lat = TriangularLattice(3)
        assert len(lat.vertices()) == 9
        assert len(lat.edges()) == 27
        assert len(lat.faces()) == 18

    def test_min_size(self):
        with pytest.raises(ValueError):
            TriangularLattice(2)

    def test_edge_index_bijection(self):
        lat = TriangularLattice(4)
        idx = {lat.edge_index(e) for e in lat.edges()}
        assert idx == set(range(48))

    def test_face_edges_connect_face_vertices(self):
        lat = TriangularLattice(3)
        for f in lat.faces():
            v1, v2, v3 = lat.face_vertices(f)
            e12, e23, e13 = lat.face_edges(f)
            assert lat.edge_endpoints(e12) == (v1, v2)
            assert lat.edge_endpoints(e23) == (v2, v3)
            assert lat.edge_endpoints(e13) == (v1, v3)

    def test_orientation_acyclic_within_faces(self):
        # every face lists its vertices in edge-orientation order
        lat = TriangularLattice(5)
        for f in lat.faces():
            for e in lat.face_edges(f):
                tail, head = lat.edge_endpoints(e)
                verts = lat.face_vertices(f)
                assert verts.index(tail) < verts.index(head)


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------


class TestCochains:
    def test_coboundary_squares_to_zero(self):
        lat = TriangularLattice(3)
        rng = random.Random(0)
        for modulus in (2, 3, 4):
            c = Cochain(lat, 0, modulus,
                        {v: rng.randrange(modulus) for v in lat.vertices()})
            assert coboundary(coboundary(c)).is_zero()

    def test_coboundary_of_constant(self):
        lat = TriangularLattice(3)
        c = Cochain(lat, 0, 2, {v: 1 for v in lat.vertices()})
        assert coboundary(c).is_zero()

    def test_coboundary_degree_guard(self):
        f = Cochain(TriangularLattice(3), 2, 2, {})
        with pytest.raises(ValueError):
            coboundary(f)

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="degree"):
            Cochain(TriangularLattice(3), 3, 2, {})

    def test_values_reduced_and_zeros_dropped(self):
        lat = TriangularLattice(3)
        c = Cochain(lat, 1, 4, {("h", 0, 0): 5, ("v", 0, 0): 8,
                                ("d", 1, 1): -1})
        assert c.values == {("h", 0, 0): 1, ("d", 1, 1): 3}
        assert c(("v", 0, 0)) == 0
        assert Cochain(lat, 0, 3, {(0, 0): 3}).is_zero()

    def test_coboundary_of_unit_edge_cochains(self):
        # delta c(f) = c(<23>) - c(<13>) + c(<12>): an h or v edge enters
        # its two faces with sign +1, a diagonal enters both as <13>
        lat = TriangularLattice(4)
        L = lat.L
        cases = {("h", 1, 2): {("up", 1, 2): 1, ("down", 1, 1): 1},
                 ("v", 0, 0): {("down", 0, 0): 1, ("up", L - 1, 0): 1},
                 ("d", 3, 1): {("up", 3, 1): 2, ("down", 3, 1): 2}}
        for e, expected in cases.items():
            assert coboundary(Cochain(lat, 1, 3, {e: 1})).values == expected


# ---------------------------------------------------------------------------
# Amplitude identity
# ---------------------------------------------------------------------------


class TestAmplitude:
    def test_trivial_config(self):
        lat = TriangularLattice(3)
        assert amplitude_psi(lat, {}) == 1
        assert domain_wall_count(lat, {}) == 0

    def test_single_island(self):
        lat = TriangularLattice(4)
        b = {(1, 1): 1}
        assert domain_wall_count(lat, b) == 1
        assert amplitude_psi(lat, b) == -1

    def test_two_islands(self):
        lat = TriangularLattice(5)
        b = {(0, 0): 1, (2, 2): 1}
        assert domain_wall_count(lat, b) == 2
        assert amplitude_psi(lat, b) == 1

    def test_random_configs_match(self):
        lat = TriangularLattice(3)
        rng = random.Random(5)
        for _ in range(100):
            b = {v: rng.randrange(2) for v in lat.vertices()}
            assert amplitude_psi(lat, b) == \
                (-1) ** domain_wall_count(lat, b)

    def test_global_flip_keeps_domain_walls(self):
        lat = TriangularLattice(4)
        rng = random.Random(7)
        for _ in range(30):
            b = {v: rng.randrange(2) for v in lat.vertices()}
            flipped = {v: 1 - bit for v, bit in b.items()}
            assert domain_wall_count(lat, flipped) == \
                domain_wall_count(lat, b)
            assert amplitude_psi(lat, flipped) == amplitude_psi(lat, b)

    def test_exhaustive_l3(self):
        lat = TriangularLattice(3)
        verts = lat.vertices()
        for bits in itertools.product((0, 1), repeat=9):
            b = dict(zip(verts, bits))
            assert amplitude_psi(lat, b) == \
                (-1) ** domain_wall_count(lat, b)


# ---------------------------------------------------------------------------
# Eigenvalue table
# ---------------------------------------------------------------------------


class TestTable1:
    def test_agreement(self):
        table = table1_identity()
        assert table["agree"]
        assert len(table["rows"]) == 4
        assert len(table["excluded"]) == 4
        for cfg, cz, s in table["rows"]:
            assert cz == s
            assert sum(cfg) % 2 == 0


# ---------------------------------------------------------------------------
# Quadratic phase operators
# ---------------------------------------------------------------------------


SITES = list(range(4))


def random_qpp(rng):
    x = {s for s in SITES if rng.random() < 0.4}
    lam = {s: rng.randrange(4) for s in SITES if rng.random() < 0.5}
    return QuadraticPhaseOperator(rng.randrange(8), x, lam)


def dense_cz(pair, sites):
    """diag((-1)^{b_a b_b}) over the listed qubit sites."""
    n = len(sites)
    i, j = (n - 1 - sites.index(s) for s in pair)
    return np.diag([(-1.0) ** ((col >> i) & (col >> j) & 1)
                    for col in range(1 << n)]).astype(complex)


class TestQuadraticPhaseOperators:
    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (2, 3), (0, 3)])
    def test_conjugation_matches_dense(self, pair):
        rng = random.Random(13)
        U = dense_cz(pair, SITES)
        ops = [random_qpp(rng) for _ in range(25)]
        # X on both sites: the reordering sign
        ops.append(QuadraticPhaseOperator(0, set(pair), {pair[0]: 1}))
        for op in ops:
            out = conjugate_qpp(op, [pair])
            assert np.allclose(qpp_dense(out, SITES),
                               U @ qpp_dense(op, SITES) @ U.conj().T)

    def test_circuit_conjugation(self):
        rng = random.Random(15)
        # sites repeat across pairs, and one pair appears twice
        circuits = [[], [(0, 2), (1, 3), (2, 1), (0, 2)], [(3, 0), (0, 3)]]
        circuits += [[tuple(rng.sample(SITES, 2))
                      for _ in range(rng.randrange(1, 7))] for _ in range(8)]
        for circ in circuits:
            U = np.eye(1 << len(SITES), dtype=complex)
            for pair in circ:
                U = dense_cz(pair, SITES) @ U
            for _ in range(10):
                op = random_qpp(rng)
                out = conjugate_qpp(op, circ)
                assert np.allclose(qpp_dense(out, SITES),
                                   U @ qpp_dense(op, SITES) @ U.conj().T)

    def test_constructor_normalizes(self):
        op = QuadraticPhaseOperator(9, [0, 0, 2], {3: 5, 1: 4, 2: -2})
        assert op.phase == 1
        assert op.x == frozenset({0, 2})
        assert op.lam == ((2, 2), (3, 1))
        assert op == QuadraticPhaseOperator(1, {2, 0}, {3: 1, 2: 2})

    def test_conjugation_is_an_involution(self):
        rng = random.Random(17)
        for _ in range(20):
            circ = [tuple(rng.sample(SITES, 2))
                    for _ in range(rng.randrange(1, 6))]
            op = random_qpp(rng)
            assert conjugate_qpp(conjugate_qpp(op, circ), circ) == op
            assert conjugate_qpp(op, circ + circ) == op

    def test_gate_order_irrelevant(self):
        rng = random.Random(19)
        for _ in range(20):
            circ = [tuple(rng.sample(SITES, 2))
                    for _ in range(rng.randrange(1, 6))]
            shuffled = rng.sample(circ, len(circ))
            op = random_qpp(rng)
            assert conjugate_qpp(op, shuffled) == conjugate_qpp(op, circ)
            assert conjugate_qpp(op, circ) == \
                conjugate_qpp(conjugate_qpp(op, circ[:1]), circ[1:])

    def test_single_qubit_cz_rejected(self):
        # CZ_aa would be Z_a, which maps X_a to -X_a, not to X_a Z_a
        op = QuadraticPhaseOperator(0, {0}, {})
        with pytest.raises(ValueError, match="distinct qubits, got 0 twice"):
            conjugate_qpp(op, [(1, 2), (0, 0)])


class TestQuditToQubitMap:
    def _sysm(self, n=2):
        return QuditSystem([4] * n)

    def test_z_image(self):
        sysm = self._sysm(1)
        op = map_qudit_to_qubits(single(sysm, 0, "Z", 1))
        assert op.lam_dict == {(0, "A"): 1, (0, "B"): 2}
        assert not op.x

    def test_x_squared_image(self):
        sysm = self._sysm(1)
        op = map_qudit_to_qubits(single(sysm, 0, "X", 2))
        assert op.x == frozenset({(0, "B")})
        assert not op.lam

    def test_odd_x_rejected(self):
        sysm = self._sysm(1)
        with pytest.raises(OddXExponentError):
            map_qudit_to_qubits(single(sysm, 0, "X", 1))

    def test_odd_x_error_names_site(self):
        sysm = self._sysm(2)
        P = PauliOperator(sysm, x={0: 2, 1: 3})
        with pytest.raises(OddXExponentError, match="site 1 carries X\\^3"):
            map_qudit_to_qubits(P)

    def test_homomorphism_on_even_sector(self):
        rng = random.Random(21)
        sysm = self._sysm(2)
        qs = [(s, ab) for s in range(2) for ab in ("A", "B")]
        for _ in range(25):
            P = PauliOperator(sysm, phase=rng.randrange(8),
                              x={s: 2 * rng.randrange(2) for s in range(2)},
                              z={s: rng.randrange(4) for s in range(2)})
            Q = PauliOperator(sysm, phase=rng.randrange(8),
                              x={s: 2 * rng.randrange(2) for s in range(2)},
                              z={s: rng.randrange(4) for s in range(2)})
            lhs = qpp_dense(map_qudit_to_qubits(multiply(P, Q)), qs)
            rhs = qpp_dense(map_qudit_to_qubits(P), qs) @ \
                qpp_dense(map_qudit_to_qubits(Q), qs)
            assert np.allclose(lhs, rhs)

    def test_requires_dim4(self):
        with pytest.raises(ValueError):
            map_qudit_to_qubits(single(QuditSystem([2]), 0, "Z", 1))


# ---------------------------------------------------------------------------
# Circuit layers
# ---------------------------------------------------------------------------


class TestCircuits:
    def test_ucx_layer_shape(self):
        lat = TriangularLattice(3)
        gates = ucx_circuit(lat)
        assert len(gates) == 2 * 9
        sysm = QuditSystem([4] * 27)
        for g in gates:
            g.validate(sysm)
            assert isinstance(g, QuditCX)
            # targets are diagonal edges
            assert g.target % 3 == 2

    def test_uab_layer_shape(self):
        lat = TriangularLattice(3)
        pairs = uab_circuit(lat)
        assert len(pairs) == 18
        for (i1, ab1), (i2, ab2) in pairs:
            assert (ab1, ab2) == ("A", "B")

    def test_uaa_layer_shape(self):
        lat = TriangularLattice(3)
        pairs = uaa_circuit(lat)
        assert len(pairs) == 9
        for (i1, ab1), (i2, ab2) in pairs:
            assert ab1 == ab2 == "A" and i1 != i2

    @pytest.mark.parametrize("L", [3, 4])
    def test_layers_act_on_distinct_lattice_pairs(self, L):
        lat = TriangularLattice(L)
        n_edges = len(lat.edges())
        for pairs in (uab_circuit(lat), uaa_circuit(lat)):
            assert len({frozenset(p) for p in pairs}) == len(pairs)
            for (i1, _), (i2, _) in pairs:
                assert 0 <= i1 < n_edges and 0 <= i2 < n_edges


# ---------------------------------------------------------------------------
# Dense ground-space oracle
# ---------------------------------------------------------------------------


class TestDenseGroundSpace:
    def test_bell_state(self):
        sysm = QuditSystem([2, 2])
        S = StabilizerGroup(sysm, [PauliOperator(sysm, x={0: 1, 1: 1}),
                                   PauliOperator(sysm, z={0: 1, 1: 1})])
        dim, basis = dense_ground_space(S)
        assert dim == 1
        assert basis.shape == (4, 1)

    def test_x2_z2_qudit4(self):
        sysm = QuditSystem([4])
        S = StabilizerGroup(sysm, [single(sysm, 0, "X", 2),
                                   single(sysm, 0, "Z", 2)])
        dim, _ = dense_ground_space(S)
        assert dim == 1

    def test_z2_only(self):
        sysm = QuditSystem([4])
        S = StabilizerGroup(sysm, [single(sysm, 0, "Z", 2)])
        dim, _ = dense_ground_space(S)
        assert dim == 2

    def test_empty_group(self):
        sysm = QuditSystem([2, 3])
        S = StabilizerGroup(sysm, [])
        dim, _ = dense_ground_space(S)
        assert dim == 6

    def test_other_errors_propagate(self, monkeypatch):
        def broken(group):
            raise RuntimeError("solver failure")

        monkeypatch.setattr(oracles, "group_order", broken)
        sysm = QuditSystem([2])
        S = StabilizerGroup(sysm, [single(sysm, 0, "Z", 1)])
        with pytest.raises(RuntimeError, match="solver failure"):
            dense_ground_space(S)

    def test_projector_basis_is_stabilized(self):
        sysm = QuditSystem([2, 2])
        XX = PauliOperator(sysm, x={0: 1, 1: 1})
        ZZ = PauliOperator(sysm, z={0: 1, 1: 1})
        S = StabilizerGroup(sysm, [XX, ZZ])
        dim, basis = dense_ground_space(S)
        # |Bell> = (|00> + |11>)/sqrt(2) spans the space
        vec = basis[:, 0]
        assert abs(abs(vec[0]) - abs(vec[3])) < 1e-9
        assert abs(vec[1]) < 1e-9 and abs(vec[2]) < 1e-9
