"""Circuit chain relating the square-lattice model to the string-net model.

Pieces verified here:
- a branched triangular lattice on the torus (all edges oriented towards
  increasing coordinates, so no face is cyclic), with mod-N cochains and
  the coboundary operator;
- the amplitude identity Psi(b) = (-1)^{number of domain walls of b};
- the control-X layer that couples the square-lattice code to ancilla
  qudits placed on the diagonal edges;
- the qudit-to-qubit-pair substitution Z -> S^A Z^B, X -> X^A CX^{AB},
  whose even-X images are operators of the form
  phase * (prod_s X_s) * Diag(i^{sum lambda_s b_s});
- conjugation of that class by the CZ layers U_AB and U_AA, given as
  qubit pairs;
- the CZ_{12,23} = S'_{12} S_{13} S'_{23} eigenvalue table on the
  even-boundary subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .pauli import PauliOperator, QuditCX, qudit_cx
from .stabilizer import VerificationError

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

    def is_zero(self) -> bool:
        return not self.values


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


def ucx_circuit(lattice: TriangularLattice) -> list[QuditCX]:
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


@dataclass(frozen=True)
class QuadraticPhaseOperator:
    """phase * (prod_{s in x} X_s) * Diag(i^{sum lam_s b_s}).

    `phase` is an exponent of e^{i pi / 4} (mod 8) and `lam` holds Z_4
    coefficients. Conjugation by CZ circuits keeps the class (conjugate_qpp).
    """

    phase: int = 0
    x: frozenset = frozenset()
    lam: tuple = ()

    def __init__(self, phase: int = 0, x: Iterable = (),
                 lam: dict | tuple = ()):
        object.__setattr__(self, "phase", phase % 8)
        object.__setattr__(self, "x", frozenset(x))
        lam_d = dict(lam)
        object.__setattr__(self, "lam", tuple(sorted(
            (s, v % 4) for s, v in lam_d.items() if v % 4)))

    @property
    def lam_dict(self) -> dict:
        return dict(self.lam)


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
    return QuadraticPhaseOperator(P.phase, x_bits, lam)


# -- conjugation by CZ circuits ----------------------------------------------


def conjugate_qpp(op: QuadraticPhaseOperator,
                  pairs: Iterable[tuple]) -> QuadraticPhaseOperator:
    """U op U^dag for U the product of CZ gates on the qubit pairs (a, b).

    From CZ_ab X_a CZ_ab = X_a Z_b, each pair adds 2 to lam at the partner
    of every X site among a and b; when both carry X it also adds 4 to the
    phase, as X_a Z_b X_b Z_a = -X_a X_b Z_a Z_b. The diagonal part commutes
    with CZ and x never changes, so the gates' order does not matter.
    """
    lam = op.lam_dict
    phase = op.phase
    for a, b in pairs:
        if a == b:
            raise ValueError(f"CZ needs two distinct qubits, got {a!r} twice")
        if a in op.x:
            lam[b] = lam.get(b, 0) + 2
        if b in op.x:
            lam[a] = lam.get(a, 0) + 2
            if a in op.x:
                phase += 4
    return QuadraticPhaseOperator(phase, op.x, lam)


def uab_circuit(lattice: TriangularLattice) -> list[tuple]:
    """prod_{all faces} CZ between A on <12> and B on <23>, as qubit pairs."""
    pairs = []
    for f in lattice.faces():
        e12, e23, _ = lattice.face_edges(f)
        pairs.append(((lattice.edge_index(e12), "A"),
                      (lattice.edge_index(e23), "B")))
    return pairs


def uaa_circuit(lattice: TriangularLattice) -> list[tuple]:
    """prod_{up faces} CZ between A on <12> and A on <23>, as qubit pairs."""
    pairs = []
    for y in range(lattice.L):
        for x in range(lattice.L):
            e12, e23, _ = lattice.face_edges(("up", x, y))
            pairs.append(((lattice.edge_index(e12), "A"),
                          (lattice.edge_index(e23), "A")))
    return pairs


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
