"""Circuit chain relating the square-lattice model to the string-net model.

Pieces verified here:
- a branched triangular lattice on the torus (all edges oriented towards
  increasing coordinates, so no face is cyclic), with mod-N cochains, the
  coboundary operator, and cup products;
- the amplitude identity Psi(b) = (-1)^{number of domain walls of b};
- the control-X layer that couples the square-lattice code to ancilla
  qudits placed on the diagonal edges;
- the qudit-to-qubit-pair substitution Z -> S^A Z^B, X -> X^A CX^{AB},
  whose even-X images close in a class of operators of the form
  phase * (prod_s X_s) * Diag(i^{sum lambda_s b_s} (-1)^{sum kappa b_s b_t});
- conjugation of that class by CZ / CX / S circuits;
- the CZ_{12,23} = S'_{12} S_{13} S'_{23} eigenvalue table on the
  even-boundary subspace;
- a dense ground-space oracle for small codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Literal, Sequence

from .pauli import CliffordGate, PauliOperator, multiply, qudit_cx
from .stabilizer import (NonCommutingError, StabilizerGroup,
                         VerificationError, group_order)

Vertex = tuple[int, int]
EdgeKind = Literal["h", "v", "d"]
Edge = tuple[EdgeKind, int, int]
Face = tuple[Literal["up", "down"], int, int]


class TriangularLattice:
    """L x L torus triangulation with an acyclic edge orientation.

    Vertices sit at (x, y). Each vertex owns a horizontal edge to (x+1, y),
    a vertical edge to (x, y+1), and a diagonal edge to (x+1, y+1); all
    three point towards increasing coordinates, so every face is ordered.
    Faces: up(x, y) = <(x,y), (x+1,y), (x+1,y+1)> and
    down(x, y) = <(x,y), (x,y+1), (x+1,y+1)>.
    """

    def __init__(self, L: int):
        if L < 3:
            raise ValueError("need L >= 3 for distinct face vertices")
        self.L = L

    def vertices(self) -> list[Vertex]:
        return [(x, y) for y in range(self.L) for x in range(self.L)]

    def edges(self) -> list[Edge]:
        return [(k, x, y) for y in range(self.L) for x in range(self.L)
                for k in ("h", "v", "d")]

    def faces(self) -> list[Face]:
        return [(k, x, y) for y in range(self.L) for x in range(self.L)
                for k in ("up", "down")]

    def wrap(self, x: int, y: int) -> Vertex:
        return (x % self.L, y % self.L)

    def edge_endpoints(self, e: Edge) -> tuple[Vertex, Vertex]:
        """(tail, head) with the edge oriented tail -> head."""
        k, x, y = e
        if k == "h":
            return self.wrap(x, y), self.wrap(x + 1, y)
        if k == "v":
            return self.wrap(x, y), self.wrap(x, y + 1)
        return self.wrap(x, y), self.wrap(x + 1, y + 1)

    def face_vertices(self, f: Face) -> tuple[Vertex, Vertex, Vertex]:
        """(1, 2, 3) ordered by incoming-edge count within the face."""
        k, x, y = f
        if k == "up":
            return self.wrap(x, y), self.wrap(x + 1, y), self.wrap(x + 1, y + 1)
        return self.wrap(x, y), self.wrap(x, y + 1), self.wrap(x + 1, y + 1)

    def face_edges(self, f: Face) -> tuple[Edge, Edge, Edge]:
        """(<12>, <23>, <13>) of the face."""
        k, x, y = f
        x, y = x % self.L, y % self.L
        if k == "up":
            return (("h", x, y), ("v", (x + 1) % self.L, y), ("d", x, y))
        return (("v", x, y), ("h", x, (y + 1) % self.L), ("d", x, y))

    def edge_index(self, e: Edge) -> int:
        k, x, y = e
        return ((y % self.L) * self.L + (x % self.L)) * 3 + "hvd".index(k)


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cochain:
    """A p-cochain with coefficients in Z_modulus; values keyed by simplex."""

    lattice: TriangularLattice
    degree: int
    modulus: int
    values: dict

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1, or 2")
        object.__setattr__(self, "values", {
            k: v % self.modulus for k, v in self.values.items()
            if v % self.modulus})

    def __call__(self, simplex) -> int:
        return self.values.get(simplex, 0)

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.degree, self.modulus) != (other.degree, other.modulus):
            raise ValueError("mismatched cochains")
        keys = set(self.values) | set(other.values)
        return Cochain(self.lattice, self.degree, self.modulus,
                       {k: self(k) + other(k) for k in keys})

    def is_zero(self) -> bool:
        return not self.values


def vertex_cochain(lattice: TriangularLattice, v: Vertex,
                   modulus: int = 2) -> Cochain:
    return Cochain(lattice, 0, modulus, {v: 1})


def edge_cochain(lattice: TriangularLattice, e: Edge,
                 modulus: int = 2) -> Cochain:
    return Cochain(lattice, 1, modulus, {e: 1})


def coboundary(c: Cochain) -> Cochain:
    """delta c(sigma) = c(boundary sigma), signed as <2>-<1> / <23>-<13>+<12>."""
    lat = c.lattice
    if c.degree == 0:
        vals = {}
        for e in lat.edges():
            tail, head = lat.edge_endpoints(e)
            vals[e] = c(head) - c(tail)
        return Cochain(lat, 1, c.modulus, vals)
    if c.degree == 1:
        vals = {}
        for f in lat.faces():
            e12, e23, e13 = lat.face_edges(f)
            vals[f] = c(e23) - c(e13) + c(e12)
        return Cochain(lat, 2, c.modulus, vals)
    raise ValueError("coboundary of a 2-cochain vanishes in two dimensions")


def cup_product(a: Cochain, b: Cochain) -> Cochain:
    """(a cup b)(<1..p+q+1>) = a(<1..p+1>) b(<p+1..p+q+1>)."""
    if a.modulus != b.modulus:
        raise ValueError("mismatched coefficient moduli")
    lat = a.lattice
    p, q = a.degree, b.degree
    if p + q > 2:
        raise ValueError("cup product degree exceeds 2")
    vals = {}
    if p + q == 0:
        for v in lat.vertices():
            vals[v] = a(v) * b(v)
        return Cochain(lat, 0, a.modulus, vals)
    if p + q == 1:
        for e in lat.edges():
            tail, head = lat.edge_endpoints(e)
            if p == 0:
                vals[e] = a(tail) * b(e)
            else:
                vals[e] = a(e) * b(head)
        return Cochain(lat, 1, a.modulus, vals)
    for f in lat.faces():
        v1, v2, v3 = lat.face_vertices(f)
        e12, e23, e13 = lat.face_edges(f)
        if (p, q) == (1, 1):
            vals[f] = a(e12) * b(e23)
        elif (p, q) == (0, 2):
            vals[f] = a(v1) * b(f)
        else:  # (2, 0)
            vals[f] = a(f) * b(v3)
    return Cochain(lat, 2, a.modulus, vals)


# ---------------------------------------------------------------------------
# Amplitude identity
# ---------------------------------------------------------------------------


def amplitude_psi(lattice: TriangularLattice, b: dict[Vertex, int]) -> int:
    """Psi(b) = prod_f (-1)^{b1 b2 b3} prod_e (-1)^{b_tail b_head} prod_v (-1)^{b_v}."""
    exponent = 0
    for f in lattice.faces():
        v1, v2, v3 = lattice.face_vertices(f)
        exponent += b.get(v1, 0) * b.get(v2, 0) * b.get(v3, 0)
    for e in lattice.edges():
        tail, head = lattice.edge_endpoints(e)
        exponent += b.get(tail, 0) * b.get(head, 0)
    for v in lattice.vertices():
        exponent += b.get(v, 0)
    return -1 if exponent % 2 else 1


class DomainWallError(VerificationError):
    """A coboundary crosses a face an odd number of times."""


def domain_wall_count(lattice: TriangularLattice, b: dict[Vertex, int]) -> int:
    """Connected components of the dual-edge set {e : delta b(e) = 1}.

    Each face contains an even number of boundary-crossing edges; a face with
    two of them joins the corresponding dual segments.
    """
    cochain = coboundary(Cochain(lattice, 0, 2, dict(b)))
    active = [e for e in lattice.edges() if cochain(e)]
    parent = {e: e for e in active}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for f in lattice.faces():
        hits = [e for e in lattice.face_edges(f) if cochain(e)]
        if len(hits) % 2:
            raise DomainWallError(f"coboundary crosses face {f} "
                                  f"{len(hits)} times")
        for e in hits[1:]:
            parent[find(e)] = find(hits[0])
    return len({find(e) for e in active})


# ---------------------------------------------------------------------------
# Control-X layer: square-lattice code plus diagonal ancillas
# ---------------------------------------------------------------------------


def ucx_circuit(lattice: TriangularLattice) -> list[CliffordGate]:
    """prod_{up faces} CX_{<12>,<13>} CX_{<23>,<13>} on edge-indexed qudits."""
    gates = []
    for y in range(lattice.L):
        for x in range(lattice.L):
            e12, e23, e13 = lattice.face_edges(("up", x, y))
            target = lattice.edge_index(e13)
            gates.append(qudit_cx(lattice.edge_index(e12), target))
            gates.append(qudit_cx(lattice.edge_index(e23), target))
    return gates


# ---------------------------------------------------------------------------
# Quadratic phase operators on qubits
# ---------------------------------------------------------------------------


class OddXExponentError(ValueError):
    """A d=4 X appears to an odd power; its image keeps a control-X residue."""


def _normalize_kappa(kap: Iterable[frozenset]) -> frozenset:
    out = set()
    for pair in kap:
        if len(pair) != 2:
            raise ValueError("kappa couples distinct site pairs")
        out.add(frozenset(pair))
    return frozenset(out)


@dataclass(frozen=True)
class QuadraticPhaseOperator:
    """phase * (prod_{s in x} X_s) * Diag(i^{sum lam_s b_s} (-1)^{sum kap b_s b_t}).

    `phase` is an exponent of e^{i pi / 4} (mod 8), `lam` holds Z_4
    coefficients, and `kap` is a set of unordered site pairs with coupling 1.
    The class is closed under multiplication and under conjugation by CZ,
    CX, and S gates.
    """

    phase: int = 0
    x: frozenset = frozenset()
    lam: tuple = ()
    kap: frozenset = frozenset()

    def __init__(self, phase: int = 0, x: Iterable = (),
                 lam: dict | tuple = (), kap: Iterable = ()):
        object.__setattr__(self, "phase", phase % 8)
        object.__setattr__(self, "x", frozenset(x))
        lam_d = dict(lam)
        object.__setattr__(self, "lam", tuple(sorted(
            (s, v % 4) for s, v in lam_d.items() if v % 4)))
        object.__setattr__(self, "kap", _normalize_kappa(kap))

    @property
    def lam_dict(self) -> dict:
        return dict(self.lam)

    def is_identity(self) -> bool:
        return not (self.phase or self.x or self.lam or self.kap)

    def support(self) -> set:
        out = set(self.x) | {s for s, _ in self.lam}
        for pair in self.kap:
            out |= set(pair)
        return out

    def __mul__(self, other: "QuadraticPhaseOperator") -> "QuadraticPhaseOperator":
        # (g1 X^{x1} D1)(g2 X^{x2} D2) = g1 g2 X^{x1+x2} (X^{x2} D1 X^{x2}) D2.
        phase = self.phase + other.phase
        lam = self.lam_dict
        kap = {pair: 1 for pair in self.kap}
        flip = other.x
        # Substitute b_s -> 1 - b_s for s in flip inside D1.
        for s in list(lam):
            if s in flip:
                phase += 2 * lam[s]
                lam[s] = -lam[s] % 4
        for pair in list(kap):
            s, t = tuple(pair)
            ins, int_ = (s in flip), (t in flip)
            if ins and int_:
                phase += 4
                lam[s] = (lam.get(s, 0) + 2) % 4
                lam[t] = (lam.get(t, 0) + 2) % 4
            elif ins:
                lam[t] = (lam.get(t, 0) + 2) % 4
            elif int_:
                lam[s] = (lam.get(s, 0) + 2) % 4
        for s, v in other.lam:
            lam[s] = (lam.get(s, 0) + v) % 4
        kap_set = set(kap)
        for pair in other.kap:
            kap_set ^= {pair}
        return QuadraticPhaseOperator(phase, self.x ^ other.x, lam, kap_set)

    def dense(self, sites: Sequence) -> "object":
        """Dense matrix over the listed qubit sites (tests and table checks)."""
        import numpy as np
        n = len(sites)
        pos = {s: i for i, s in enumerate(sites)}
        dim = 1 << n
        mat = np.zeros((dim, dim), dtype=complex)
        root = np.exp(1j * np.pi / 4)
        lam = self.lam_dict
        for col in range(dim):
            bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
            exp_i = sum(lam.get(s, 0) * bits[pos[s]] for s in lam if s in pos)
            sign = sum(bits[pos[s]] * bits[pos[t]]
                       for pair in self.kap for s, t in [tuple(pair)])
            val = (root ** self.phase) * (1j ** exp_i) * ((-1) ** sign)
            row_bits = list(bits)
            for s in self.x:
                row_bits[pos[s]] ^= 1
            row = 0
            for bit in row_bits:
                row = (row << 1) | bit
            mat[row, col] = val
        return mat


def map_qudit_to_qubits(P: PauliOperator) -> QuadraticPhaseOperator:
    """Image of a d=4 Pauli word under Z -> S^A Z^B, X -> X^A CX^{AB}.

    (X^A CX^{AB})^2 = X^B and Z^2 -> Z^A, so even powers land in the
    quadratic-phase class; an odd X power leaves a control-X residue and
    raises OddXExponentError. Qubit sites are labelled (site, "A"/"B").
    """
    if any(d != 4 for d in P.system.dims):
        raise ValueError("mapping requires dimension-4 qudits")
    x_bits = set()
    lam = {}
    for s, e in P.x.items():
        e %= 4
        if e % 2:
            raise OddXExponentError(f"site {s} carries X^{e}")
        if (e // 2) % 2:
            x_bits.add((s, "B"))
    for s, e in P.z.items():
        e %= 4
        if e:
            lam[(s, "A")] = e
            lam[(s, "B")] = (2 * e) % 4
    return QuadraticPhaseOperator(P.phase, x_bits, lam, ())


# -- conjugation by qubit circuits ------------------------------------------


@dataclass(frozen=True)
class QubitGate:
    kind: Literal["CZ", "CX", "S"]
    sites: tuple

    def __post_init__(self):
        expected = 1 if self.kind == "S" else 2
        if len(self.sites) != expected:
            raise ValueError(f"{self.kind} takes {expected} site(s)")


def _conjugate_x_factor(site, gate: QubitGate) -> QuadraticPhaseOperator:
    """Image of a single X_site under one gate."""
    if gate.kind == "CZ":
        a, b = gate.sites
        if site == a:
            return QuadraticPhaseOperator(0, {a}, {b: 2}, ())
        if site == b:
            return QuadraticPhaseOperator(0, {b}, {a: 2}, ())
    elif gate.kind == "S":
        (a,) = gate.sites
        if site == a:
            return QuadraticPhaseOperator(2, {a}, {a: 2}, ())  # i X Z
    elif gate.kind == "CX":
        c, t = gate.sites
        if site == c:
            return QuadraticPhaseOperator(0, {c, t}, {}, ())
    return QuadraticPhaseOperator(0, {site}, {}, ())


def _conjugate_diagonal(op: QuadraticPhaseOperator,
                        gate: QubitGate) -> QuadraticPhaseOperator:
    """Conjugate the diagonal part; only CX acts nontrivially."""
    if gate.kind != "CX":
        return QuadraticPhaseOperator(op.phase, (), op.lam_dict, op.kap)
    c, t = gate.sites
    # Substitute b_t -> b_t xor b_c = b_c + b_t - 2 b_c b_t.
    lam = op.lam_dict
    new_kap = set()
    for pair in op.kap:
        if t in pair and c not in pair:
            (u,) = pair - {t}
            new_kap ^= {pair, frozenset({c, u})}
        elif pair == frozenset({c, t}):
            lam[c] = (lam.get(c, 0) + 2) % 4
            new_kap ^= {pair}
        else:
            new_kap ^= {pair}
    lt = lam.get(t, 0)
    if lt:
        lam[c] = (lam.get(c, 0) + lt) % 4
        if lt % 2:
            new_kap ^= {frozenset({c, t})}
    return QuadraticPhaseOperator(op.phase, (), lam, new_kap)


def conjugate_qpp(op: QuadraticPhaseOperator,
                  circuit: Sequence[QubitGate]) -> QuadraticPhaseOperator:
    """U op U^dag, gate by gate; the class is closed so this is exact."""
    for gate in circuit:
        out = QuadraticPhaseOperator(op.phase, (), {}, ())
        for site in sorted(op.x):
            out = out * _conjugate_x_factor(site, gate)
        out = out * _conjugate_diagonal(
            QuadraticPhaseOperator(0, (), op.lam_dict, op.kap), gate)
        op = out
    return op


def uab_circuit(lattice: TriangularLattice) -> list[QubitGate]:
    """prod_{all faces} CZ between A on <12> and B on <23>."""
    gates = []
    for f in lattice.faces():
        e12, e23, _ = lattice.face_edges(f)
        gates.append(QubitGate("CZ", ((lattice.edge_index(e12), "A"),
                                      (lattice.edge_index(e23), "B"))))
    return gates


def uaa_circuit(lattice: TriangularLattice) -> list[QubitGate]:
    """prod_{up faces} CZ between A on <12> and A on <23>."""
    gates = []
    for y in range(lattice.L):
        for x in range(lattice.L):
            e12, e23, _ = lattice.face_edges(("up", x, y))
            gates.append(QubitGate("CZ", ((lattice.edge_index(e12), "A"),
                                          (lattice.edge_index(e23), "A"))))
    return gates


# ---------------------------------------------------------------------------
# Eigenvalue table on the even-boundary subspace
# ---------------------------------------------------------------------------


def table1_identity() -> dict:
    """Compare CZ_{12,23} and S'_12 S_13 S'_23 on even-sum edge configurations.

    Both operators are diagonal; their eigenvalues agree exactly on the
    states with a_12 + a_13 + a_23 even (the face-term +1 subspace).
    """
    rows = []
    excluded = []
    agree = True
    for a12 in (0, 1):
        for a13 in (0, 1):
            for a23 in (0, 1):
                if (a12 + a13 + a23) % 2:
                    excluded.append((a12, a13, a23))
                    continue
                cz = (-1) ** (a12 * a23)
                # (-i)^a12 i^a13 (-i)^a23 = i^e; e is even on even-sum states
                e = (a13 - a12 - a23) % 4
                s = (-1) ** (e // 2)
                rows.append(((a12, a13, a23), cz, s))
                agree = agree and cz == s
    return {"rows": rows, "excluded": excluded, "agree": agree}


# ---------------------------------------------------------------------------
# Dense ground-space oracle
# ---------------------------------------------------------------------------


def dense_ground_space(group: StabilizerGroup, tol: float = 1e-9,
                       extra_probes: int = 8):
    """Ground-space dimension and an orthonormal basis, by dense projection.

    Applies the generator projectors (1/|g|) sum_k g^k to a block of random
    state vectors and ranks the result. Requires total dimension <= 2^20.
    """
    import numpy as np
    dims = group.system.dims
    total = prod(dims)
    if total > 1 << 20:
        raise ValueError("system too large for the dense oracle")
    D = group.system.D

    radix = []
    stride = total
    for d in dims:
        stride //= d
        radix.append(stride)
    idx = np.arange(total)
    digits = [(idx // radix[q]) % dims[q] for q in range(len(dims))]

    def apply_op(P: PauliOperator, V):
        phase = np.exp(1j * np.pi * P.phase / D) * np.ones(total)
        for q, e in P.z.items():
            phase = phase * np.exp(2j * np.pi * e * digits[q] / dims[q])
        target = idx.copy()
        for q, e in P.x.items():
            target = target + ((digits[q] + e) % dims[q] - digits[q]) * radix[q]
        out = np.zeros_like(V)
        out[target] = phase[:, None] * V
        return out

    rng = np.random.default_rng(7)
    expected = max(1, total // max(1, _order_hint(group)))
    cols = min(total, expected + extra_probes)
    V = rng.standard_normal((total, cols)) + 1j * rng.standard_normal(
        (total, cols))
    for g in group.generators:
        order = _pauli_order(g)
        acc = V.copy()
        term = V
        for _ in range(order - 1):
            term = apply_op(g, term)
            acc = acc + term
        V = acc / order
    u, s, _ = np.linalg.svd(V, full_matrices=False)
    dim = int((s > tol * (s[0] if s.size and s[0] > 0 else 1)).sum())
    return dim, u[:, :dim]


def _pauli_order(P: PauliOperator) -> int:
    k = 1
    Q = P
    while not Q.is_identity():
        k += 1
        Q = multiply(Q, P)
        if k > 4 * P.system.D:
            raise ValueError("operator order too large (nontrivial scalar?)")
    return k


def _order_hint(group: StabilizerGroup) -> int:
    try:
        return group_order(group)
    except NonCommutingError:
        return 1
