"""Tests for the triangulation, cup products, amplitude identity, and the
qudit-to-qubit substitution machinery."""

import itertools
import random

import numpy as np
import pytest

import oracles
from oracles import dense_ground_space, qpp_dense
from tqdstab.circuitmap import (Cochain, OddXExponentError, QubitGate,
                                QuadraticPhaseOperator, TriangularLattice,
                                amplitude_psi, coboundary, conjugate_qpp,
                                cup_product, domain_wall_count, edge_cochain,
                                map_qudit_to_qubits, table1_identity,
                                uaa_circuit, uab_circuit, ucx_circuit,
                                vertex_cochain)
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

    def test_cup_leibniz_mod2(self):
        # delta(a cup b) = delta a cup b + a cup delta b over Z_2
        lat = TriangularLattice(3)
        rng = random.Random(1)
        for _ in range(10):
            a = Cochain(lat, 0, 2,
                        {v: rng.randrange(2) for v in lat.vertices()})
            b = Cochain(lat, 1, 2,
                        {e: rng.randrange(2) for e in lat.edges()})
            lhs = coboundary(cup_product(a, b))
            rhs = cup_product(coboundary(a), b) + cup_product(a, coboundary(b))
            assert (lhs + rhs).is_zero()

    def test_cup_degree_guard(self):
        lat = TriangularLattice(3)
        b = Cochain(lat, 1, 2, {})
        f = Cochain(lat, 2, 2, {})
        with pytest.raises(ValueError):
            cup_product(b, f)
        with pytest.raises(ValueError):
            coboundary(f)

    def test_unit_cochains(self):
        lat = TriangularLattice(3)
        v = vertex_cochain(lat, (0, 0))
        e = edge_cochain(lat, ("h", 0, 0))
        assert v((0, 0)) == 1 and v((1, 0)) == 0
        assert e(("h", 0, 0)) == 1
        assert cup_product(v, e)(("h", 0, 0)) == 1


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
    pairs = [frozenset(p) for p in itertools.combinations(SITES, 2)]
    kap = {p for p in pairs if rng.random() < 0.3}
    return QuadraticPhaseOperator(rng.randrange(8), x, lam, kap)


def dense_qubit_gate(gate, sites):
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    dim = 1 << n
    U = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        amp = 1.0 + 0j
        out = list(bits)
        if gate.kind == "CZ":
            a, b = gate.sites
            amp = (-1.0) ** (bits[pos[a]] * bits[pos[b]])
        elif gate.kind == "S":
            (a,) = gate.sites
            amp = 1j ** bits[pos[a]]
        elif gate.kind == "CX":
            c, t = gate.sites
            out[pos[t]] ^= bits[pos[c]]
        row = 0
        for bit in out:
            row = (row << 1) | bit
        U[row, col] += amp
    return U


class TestQuadraticPhaseOperators:
    def test_multiplication_matches_dense(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b = random_qpp(rng), random_qpp(rng)
            assert np.allclose(qpp_dense(a * b, SITES),
                               qpp_dense(a, SITES) @ qpp_dense(b, SITES))

    def test_identity_and_support(self):
        assert QuadraticPhaseOperator().is_identity()
        op = QuadraticPhaseOperator(0, {0}, {1: 2}, [frozenset({2, 3})])
        assert op.support() == {0, 1, 2, 3}

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            QuadraticPhaseOperator(0, (), {}, [frozenset({1})])

    @pytest.mark.parametrize("gate", [
        QubitGate("CZ", (0, 1)),
        QubitGate("CZ", (2, 3)),
        QubitGate("CX", (0, 1)),
        QubitGate("CX", (3, 2)),
        QubitGate("S", (1,)),
    ])
    def test_conjugation_matches_dense(self, gate):
        rng = random.Random(13)
        U = dense_qubit_gate(gate, SITES)
        for _ in range(25):
            op = random_qpp(rng)
            out = conjugate_qpp(op, [gate])
            assert np.allclose(qpp_dense(out, SITES),
                               U @ qpp_dense(op, SITES) @ U.conj().T)

    def test_circuit_conjugation(self):
        rng = random.Random(15)
        circ = [QubitGate("CX", (0, 2)), QubitGate("CZ", (1, 3)),
                QubitGate("S", (0,))]
        U = np.eye(1 << 4, dtype=complex)
        for g in circ:
            U = dense_qubit_gate(g, SITES) @ U
        for _ in range(10):
            op = random_qpp(rng)
            out = conjugate_qpp(op, circ)
            assert np.allclose(qpp_dense(out, SITES),
                               U @ qpp_dense(op, SITES) @ U.conj().T)

    def test_gate_arity(self):
        with pytest.raises(ValueError):
            QubitGate("S", (0, 1))
        with pytest.raises(ValueError):
            QubitGate("CZ", (0,))


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
        gates = uab_circuit(lat)
        assert len(gates) == 18
        for g in gates:
            assert g.kind == "CZ"
            (i1, ab1), (i2, ab2) = g.sites
            assert (ab1, ab2) == ("A", "B")

    def test_uaa_layer_shape(self):
        lat = TriangularLattice(3)
        gates = uaa_circuit(lat)
        assert len(gates) == 9
        for g in gates:
            (i1, ab1), (i2, ab2) = g.sites
            assert ab1 == ab2 == "A"


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
