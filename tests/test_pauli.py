"""Tests for generalized Pauli operators, with a dense-matrix oracle."""

import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import commutes

from tqdstab.exactmath import Rational01
from tqdstab.pauli import (PauliOperator, QuditCX, QuditSystem, _make,
                           adjoint, commutation_exponent, commutation_phase,
                           conjugate, identity, multiply, power, product,
                           product_of_powers, qudit_cx, render, scalar,
                           single)


# ---------------------------------------------------------------------------
# Dense oracle: explicit clock / shift matrices
# ---------------------------------------------------------------------------


def _shift(d):
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + 1) % d, j] = 1.0
    return m


def _clock(d):
    w = np.exp(2j * np.pi / d)
    return np.diag([w ** j for j in range(d)])


def dense(P):
    dims = P.system.dims
    mats = []
    for site, d in enumerate(dims):
        m = np.eye(d, dtype=complex)
        xq = P.x.get(site, 0)
        zq = P.z.get(site, 0)
        if xq:
            m = m @ np.linalg.matrix_power(_shift(d), xq % d)
        if zq:
            m = m @ np.linalg.matrix_power(_clock(d), zq % d)
        mats.append(m)
    full = reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)
    return np.exp(1j * np.pi * P.phase / P.system.D) * full


def random_op(rng, system, max_phase=None):
    two_d = 2 * system.D if max_phase is None else max_phase
    return PauliOperator(
        system,
        phase=rng.randrange(two_d),
        x={s: rng.randrange(d) for s, d in enumerate(system.dims)},
        z={s: rng.randrange(d) for s, d in enumerate(system.dims)})


SYSTEMS = [QuditSystem([2, 2]), QuditSystem([3, 3]), QuditSystem([4]),
           QuditSystem([2, 3]), QuditSystem([2, 4, 3])]


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


class TestBasics:
    def test_system_lcm(self):
        assert QuditSystem([2, 3]).D == 6
        assert QuditSystem([4, 2]).D == 4
        assert QuditSystem([]).D == 1

    def test_exponent_reduction(self):
        sysm = QuditSystem([3])
        P = PauliOperator(sysm, x={0: 5}, z={0: -1})
        assert P.x == {0: 2} and P.z == {0: 2}
        assert PauliOperator(sysm, x={0: 3}).is_identity()

    def test_phase_mod_2d(self):
        sysm = QuditSystem([2, 3])
        assert scalar(sysm, 13).phase == 1
        assert scalar(sysm, -1).phase == 11

    def test_support_and_scalar(self):
        sysm = QuditSystem([2, 2, 2])
        P = PauliOperator(sysm, x={0: 1}, z={2: 1})
        assert P.support == {0, 2}
        assert not P.is_scalar()
        assert scalar(sysm, 2).is_scalar()

    def test_equality_hash(self):
        sysm = QuditSystem([3])
        assert single(sysm, 0, "X", 1) == PauliOperator(sysm, x={0: 4})
        assert hash(single(sysm, 0, "Z", 2)) == hash(
            PauliOperator(sysm, z={0: -1}))

    def test_render(self):
        sysm = QuditSystem([2])
        assert render(identity(sysm)) == "1"
        assert render(scalar(sysm, 2)) == "-1 · 1"
        assert "X[0]^1" in render(single(sysm, 0, "X", 1))

    def test_bad_site(self):
        with pytest.raises(ValueError):
            single(QuditSystem([2]), 1, "X", 1)

    @pytest.mark.parametrize("x,z", [({2: 1}, None), (None, {-1: 1}),
                                     ({0: 1}, {5: 0})])
    def test_public_constructor_rejects_bad_sites(self, x, z):
        with pytest.raises(ValueError, match="invalid site"):
            PauliOperator(QuditSystem([2, 3]), x=x, z=z)


# ---------------------------------------------------------------------------
# Algebra against the dense oracle
# ---------------------------------------------------------------------------


class TestDenseOracle:
    @pytest.mark.parametrize("sysm", SYSTEMS)
    def test_multiply(self, sysm):
        rng = random.Random(hash(sysm.dims) & 0xFFFF)
        for _ in range(25):
            P, Q = random_op(rng, sysm), random_op(rng, sysm)
            assert np.allclose(dense(multiply(P, Q)), dense(P) @ dense(Q))

    @pytest.mark.parametrize("sysm", SYSTEMS)
    def test_adjoint(self, sysm):
        rng = random.Random(1 + (hash(sysm.dims) & 0xFFFF))
        for _ in range(25):
            P = random_op(rng, sysm)
            assert np.allclose(dense(adjoint(P)), dense(P).conj().T)
            assert multiply(P, adjoint(P)).is_identity()
            assert adjoint(adjoint(P)) == P

    @pytest.mark.parametrize("sysm", SYSTEMS)
    def test_power(self, sysm):
        rng = random.Random(2 + (hash(sysm.dims) & 0xFFFF))
        for _ in range(15):
            P = random_op(rng, sysm)
            for k in (-3, -1, 0, 2, 5):
                repeated = identity(sysm)
                Q = P if k >= 0 else adjoint(P)
                for _ in range(abs(k)):
                    repeated = multiply(repeated, Q)
                assert power(P, k) == repeated

    @pytest.mark.parametrize("sysm", SYSTEMS)
    def test_commutation_phase(self, sysm):
        rng = random.Random(3 + (hash(sysm.dims) & 0xFFFF))
        for _ in range(25):
            P, Q = random_op(rng, sysm), random_op(rng, sysm)
            phi = commutation_phase(P, Q)
            lhs = dense(multiply(P, Q))
            rhs = np.exp(2j * np.pi * complex(phi.fraction)) \
                * dense(multiply(Q, P))
            assert np.allclose(lhs, rhs)
            assert commutes(P, Q) == phi.is_zero()

    def test_power_large_exponent(self):
        sysm = QuditSystem([4])
        P = PauliOperator(sysm, phase=1, x={0: 1}, z={0: 3})
        # closed form must agree with splitting the exponent
        assert power(P, 16) == power(power(P, 4), 4)
        assert power(P, 24) == power(power(P, 6), 4)
        assert power(P, -8) == adjoint(power(P, 8))


class TestKnownIdentities:
    def test_qubit_anticommutation(self):
        sysm = QuditSystem([2])
        X, Z = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        assert commutation_phase(Z, X) == Rational01(1, 2)
        # Z X = -1 * X Z
        assert multiply(Z, X) == multiply(scalar(sysm, 2), multiply(X, Z))

    def test_y_squares_to_minus_one_exponent(self):
        # (XZ)^2 = e^{i*pi} on a qubit since ZX = -XZ
        sysm = QuditSystem([2])
        Y = multiply(single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1))
        assert power(Y, 2) == scalar(sysm, 2)

    def test_qutrit_commutation(self):
        sysm = QuditSystem([3])
        X, Z = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        assert commutation_phase(Z, X) == Rational01(1, 3)

    def test_mixed_dims_scaling(self):
        sysm = QuditSystem([2, 3])
        X2, Z2 = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        X3, Z3 = single(sysm, 1, "X", 1), single(sysm, 1, "Z", 1)
        assert commutation_phase(Z2, X2) == Rational01(1, 2)
        assert commutation_phase(Z3, X3) == Rational01(1, 3)
        assert commutes(X2, Z3) and commutes(Z2, X3)

    def test_product_order(self):
        sysm = QuditSystem([2])
        X, Z = single(sysm, 0, "X", 1), single(sysm, 0, "Z", 1)
        assert product([Z, X]) != product([X, Z])
        assert product([], system=sysm).is_identity()
        with pytest.raises(ValueError):
            product([])

    def test_system_mismatch(self):
        with pytest.raises(ValueError):
            multiply(identity(QuditSystem([2])), identity(QuditSystem([3])))

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_qudit4_multiply_property(self, x1, z1, x2, z2):
        sysm = QuditSystem([4])
        P = PauliOperator(sysm, x={0: x1}, z={0: z1})
        Q = PauliOperator(sysm, x={0: x2}, z={0: z2})
        assert np.allclose(dense(multiply(P, Q)), dense(P) @ dense(Q))


# ---------------------------------------------------------------------------
# The integer kernel against the public, validating route
# ---------------------------------------------------------------------------


@st.composite
def mixed_ops(draw, n_ops):
    """A random mixed-dimension system and n_ops operators on it, with
    unreduced and negative phases and exponents."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1,
                         max_size=4))
    sysm = QuditSystem(dims)
    sites = st.sampled_from(range(len(dims)))
    exps = st.dictionaries(sites, st.integers(-13, 13), max_size=len(dims))
    ops = [(draw(st.integers(-50, 50)), draw(exps), draw(exps))
           for _ in range(n_ops)]
    return sysm, ops


def _all_sites_exponent(P, Q):
    """The commutation sum over every site of either support (the formula
    written before the integer kernel), as an exact phase."""
    D = P.system.D
    total = sum((D // P.system.dims[s]) * (P.z.get(s, 0) * Q.x.get(s, 0)
                                           - P.x.get(s, 0) * Q.z.get(s, 0))
                for s in P.support | Q.support)
    return Rational01(total, D)


class TestIntegerKernel:
    @given(mixed_ops(1))
    @settings(max_examples=80, deadline=None)
    def test_make_equals_public_constructor(self, case):
        sysm, [(phase, x, z)] = case
        made = _make(sysm, phase, x, z)
        public = PauliOperator(sysm, phase=phase, x=x, z=z)
        assert made == public
        assert (made.phase, made.x, made.z) == (public.phase, public.x,
                                                public.z)
        assert type(made) is PauliOperator and made.system is sysm

    @given(mixed_ops(2))
    @settings(max_examples=80, deadline=None)
    def test_commutation_exponent_matches_phase(self, case):
        sysm, specs = case
        P, Q = (PauliOperator(sysm, phase=p, x=x, z=z) for p, x, z in specs)
        e = commutation_exponent(P, Q)
        assert 0 <= e < sysm.D
        assert Rational01(e, sysm.D) == commutation_phase(P, Q)
        assert commutation_phase(P, Q) == _all_sites_exponent(P, Q)
        assert (e + commutation_exponent(Q, P)) % sysm.D == 0
        assert commutes(P, Q) == (e == 0)

    @given(mixed_ops(4), st.lists(st.integers(-9, 9), min_size=4,
                                  max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_product_of_powers_equals_chain(self, case, coeffs):
        sysm, specs = case
        ops = [PauliOperator(sysm, phase=p, x=x, z=z) for p, x, z in specs]
        chain = identity(sysm)
        for P, a in zip(ops, coeffs):
            if a:
                chain = multiply(chain, power(P, a))
        assert product_of_powers(sysm, zip(ops, coeffs)) == chain

    def test_product_of_powers_large_and_empty(self):
        sysm = QuditSystem([4, 2])
        P = PauliOperator(sysm, phase=3, x={0: 1, 1: 1}, z={0: 3})
        # P^8 = 1 (8 = 2D), so P^(10^12 + 3) = P^3
        cube = multiply(multiply(P, P), P)
        assert product_of_powers(sysm, [(P, 10 ** 12 + 3)]) == cube
        assert product_of_powers(sysm, [(P, -(10 ** 12) + 3)]) == cube
        assert product_of_powers(sysm, []).is_identity()
        with pytest.raises(ValueError):
            product_of_powers(QuditSystem([3]), [(P, 1)])

    def test_commutation_exponent_system_mismatch(self):
        with pytest.raises(ValueError):
            commutation_exponent(identity(QuditSystem([2])),
                                 identity(QuditSystem([3])))


# ---------------------------------------------------------------------------
# Control-X conjugation
# ---------------------------------------------------------------------------


def dense_gate(gate, system):
    """The permutation matrix |..a..b..> -> |..a..a+b..> of a control-X."""
    dims = system.dims
    total = 1
    for d in dims:
        total *= d
    U = np.zeros((total, total), dtype=complex)

    def index(cfg):
        idx = 0
        for q, d in enumerate(dims):
            idx = idx * d + cfg[q]
        return idx

    def all_configs(prefix, q):
        if q == len(dims):
            yield tuple(prefix)
            return
        for v in range(dims[q]):
            yield from all_configs(prefix + [v], q + 1)

    c, t = gate.control, gate.target
    for cfg in all_configs([], 0):
        out = list(cfg)
        out[t] = (out[t] + out[c]) % dims[t]
        U[index(out), index(cfg)] += 1.0
    return U


@st.composite
def cx_cases(draw, n_ops=1):
    """A mixed-dimension system with two sites of equal dimension d among
    spectators of other dimensions, a control-X on that pair, and n_ops
    operators with unreduced and negative phase and exponents."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=3))
    d = draw(st.sampled_from([2, 3, 4, 8, 9]))
    for _ in range(2):
        dims.insert(draw(st.integers(0, len(dims))), d)
    pair = [s for s, e in enumerate(dims) if e == d]
    c, t = draw(st.permutations(pair))[:2]
    sysm = QuditSystem(dims)
    sites = st.sampled_from(range(len(dims)))
    exps = st.dictionaries(sites, st.integers(-13, 13), max_size=len(dims))
    ops = [PauliOperator(sysm, phase=draw(st.integers(-50, 50)),
                         x=draw(exps), z=draw(exps)) for _ in range(n_ops)]
    return d, qudit_cx(c, t), ops


class TestConjugation:
    @pytest.mark.parametrize("sysm,gate", [
        (QuditSystem([2, 2]), qudit_cx(0, 1)),
        (QuditSystem([3, 3]), qudit_cx(1, 0)),
        (QuditSystem([4, 4]), qudit_cx(0, 1)),
        (QuditSystem([2, 3, 2]), qudit_cx(2, 0)),
        (QuditSystem([3, 2, 3]), qudit_cx(0, 2)),
        (QuditSystem([6, 6]), qudit_cx(1, 0)),
        (QuditSystem([4, 3, 4]), qudit_cx(0, 2)),
    ])
    def test_against_dense(self, sysm, gate):
        rng = random.Random(7)
        U = dense_gate(gate, sysm)
        for _ in range(20):
            P = random_op(rng, sysm)
            Q = conjugate(P, [gate])
            assert np.allclose(dense(Q), U @ dense(P) @ U.conj().T)

    def test_cx_tableau(self):
        sysm = QuditSystem([3, 3])
        gate = qudit_cx(0, 1)
        Xc = single(sysm, 0, "X", 1)
        Zt = single(sysm, 1, "Z", 1)
        assert conjugate(Xc, [gate]) == PauliOperator(sysm, x={0: 1, 1: 1})
        assert conjugate(Zt, [gate]) == PauliOperator(sysm, z={0: -1, 1: 1})
        # spectators untouched
        assert conjugate(single(sysm, 1, "X", 1), [gate]) == \
            single(sysm, 1, "X", 1)
        assert conjugate(single(sysm, 0, "Z", 1), [gate]) == \
            single(sysm, 0, "Z", 1)

    @given(cx_cases())
    @settings(max_examples=100, deadline=None)
    def test_cx_to_the_d_is_the_identity_map(self, case):
        d, gate, (P,) = case
        assert conjugate(P, [gate] * d) == P
        assert conjugate(P, [gate] * (d + 1)) == conjugate(P, [gate])

    @given(cx_cases(n_ops=2))
    @settings(max_examples=100, deadline=None)
    def test_conjugation_is_multiplicative(self, case):
        # U PQ U^dag = (U P U^dag)(U Q U^dag), phases included
        _, gate, (P, Q) = case
        circ = [gate, qudit_cx(gate.target, gate.control)]
        assert conjugate(multiply(P, Q), circ) == \
            multiply(conjugate(P, circ), conjugate(Q, circ))

    @given(cx_cases(n_ops=2))
    @settings(max_examples=100, deadline=None)
    def test_conjugation_keeps_commutation(self, case):
        _, gate, (P, Q) = case
        circ = [gate, qudit_cx(gate.target, gate.control), gate]
        assert commutation_exponent(conjugate(P, circ),
                                    conjugate(Q, circ)) == \
            commutation_exponent(P, Q)

    def test_circuit_order(self):
        sysm = QuditSystem([3, 3, 3])
        circ = [qudit_cx(0, 1), qudit_cx(1, 2)]
        first, second = (dense_gate(g, sysm) for g in circ)
        U = second @ first
        # the two gates do not commute, so the order is tested
        assert not np.allclose(U, first @ second)
        rng = random.Random(9)
        for _ in range(10):
            P = random_op(rng, sysm)
            assert np.allclose(dense(conjugate(P, circ)),
                               U @ dense(P) @ U.conj().T)

    def test_gate_validated_once_per_conjugation(self, monkeypatch):
        calls = []
        original = QuditCX.validate
        monkeypatch.setattr(QuditCX, "validate",
                            lambda gate, system: calls.append(gate)
                            or original(gate, system))
        sysm = QuditSystem([3, 3])
        P = PauliOperator(sysm, phase=1, x={0: 1, 1: 2}, z={0: 2, 1: 1})
        conjugate(P, [qudit_cx(0, 1)])  # four single-site factors
        assert calls == [qudit_cx(0, 1)]

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            conjugate(identity(QuditSystem([2, 3])),
                      [qudit_cx(0, 1)])
        with pytest.raises(ValueError):
            conjugate(identity(QuditSystem([3, 3])), [qudit_cx(1, 1)])
        with pytest.raises(ValueError):
            conjugate(identity(QuditSystem([3, 3])), [qudit_cx(0, 2)])
