"""Stabilizer-model builders on an Lx x Ly torus.

Geometry: square lattice with periodic boundaries. Cell (x, y) owns
- vertex v(x, y),
- horizontal edge H(x, y) from v(x, y) to v(x+1, y),
- vertical edge V(x, y) from v(x, y) to v(x, y+1),
- plaquette p(x, y) with corners v(x,y), v(x+1,y), v(x+1,y+1), v(x,y+1).

Every generator and string operator is assembled from *transport* segments
of a flux/charge composite. A flux f in plaquette p(x, y) binds the charge
prescribed by the model parameters; that bound charge travels with the flux
and its hop lands on the far edge of the destination cell: moving one cell
east applies X^{flux} on the crossed edge V(x+1, y) and Z^{bound} on
H(x+1, y+1); one cell north applies X^{-flux} on H(x, y+1) and Z^{bound} on
V(x+1, y+1). Any charge in excess of the bound amount hops on the near edge
of the source cell (H(x, y) for east moves, V(x, y) for north moves), which
is also where pure charges move on the direct lattice. Closed loops of these
segments reproduce the vertex and plaquette terms of the models; the
two-body edge terms use the unbound placement (all charge on the near edge).
The vertex terms additionally carry a uniform scalar phase per layer, solved
exactly so every scalar element of the generated group equals +1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from math import gcd
from typing import Literal, Sequence

from .exactmath import IntMatrix, ModSolver, solve_linear_mod
from .pauli import (PauliOperator, QuditSystem, adjoint, identity, multiply,
                    product, scalar)
from .stabilizer import StabilizerGroup, groups_equal, measure


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n itself prime


@dataclass(frozen=True)
class TqdParams:
    """Parameters (G, I): G = prod Z_{N_i}, I = {n_i} u {n_ij}."""

    N: tuple[int, ...]
    n: tuple[int, ...]
    nij: tuple[tuple[int, ...], ...]

    def __init__(self, N: Sequence[int], n: Sequence[int],
                 nij: Sequence[Sequence[int]] | dict | None = None):
        N = tuple(int(v) for v in N)
        n = tuple(int(v) for v in n)
        M = len(N)
        if len(n) != M:
            raise ValueError("n must have one entry per factor")
        if any(not _is_prime_power(v) for v in N):
            raise ValueError("each N_i must be a prime power")
        if any(N[i] > N[i + 1] for i in range(M - 1)):
            raise ValueError("factors must be ordered N_1 <= ... <= N_M")
        table = [[0] * M for _ in range(M)]
        if isinstance(nij, dict):
            for (i, j), v in nij.items():
                table[i][j] = table[j][i] = int(v)
        elif nij is not None:
            table = [list(int(v) for v in row) for row in nij]
            if len(table) != M or any(len(r) != M for r in table):
                raise ValueError("nij must be an MxM table")
        for i in range(M):
            if not 0 <= n[i] < N[i]:
                raise ValueError(f"n_{i} out of range Z_{N[i]}")
            table[i][i] = (2 * n[i]) % N[i]
            for j in range(M):
                if i != j:
                    g = gcd(N[i], N[j])
                    if table[i][j] != table[j][i]:
                        raise ValueError("nij must be symmetric")
                    if not 0 <= table[i][j] < g:
                        raise ValueError(
                            f"n_{i}{j} out of range Z_gcd(N_{i},N_{j})")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nij", tuple(tuple(r) for r in table))

    @property
    def M(self) -> int:
        return len(self.N)


DS_PARAMS = TqdParams([2], [1])


@dataclass(frozen=True)
class AnyonLabel:
    """A flux/charge composite in the stacked toric-code layers.

    flux[i], charge[i] are integer exponents on layer i (layer dimension d_i).
    """

    flux: tuple[int, ...]
    charge: tuple[int, ...]

    def __mul__(self, k: int) -> "AnyonLabel":
        return AnyonLabel(tuple(k * f for f in self.flux),
                          tuple(k * c for c in self.charge))

    __rmul__ = __mul__

    def combine(self, other: "AnyonLabel") -> "AnyonLabel":
        return AnyonLabel(tuple(a + b for a, b in zip(self.flux, other.flux)),
                          tuple(a + b for a, b in zip(self.charge, other.charge)))

    def is_pure_charge(self) -> bool:
        return all(f == 0 for f in self.flux)

    @property
    def path_kind(self) -> str:
        return "direct" if self.is_pure_charge() else "dual"

    def reduced(self, dims: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(f % d for f, d in zip(self.flux, dims)),
                tuple(c % d for c, d in zip(self.charge, dims)))


# ---------------------------------------------------------------------------
# Torus geometry
# ---------------------------------------------------------------------------

H, V = 0, 1  # edge orientations


@dataclass(frozen=True)
class TorusLattice:
    """Site indexing for edge qudit layers plus optional vertex qubit layers."""

    Lx: int
    Ly: int
    edge_dims: tuple[int, ...]      # one qudit dimension per edge layer
    vertex_dims: tuple[int, ...] = ()  # one dimension per vertex layer

    def __post_init__(self):
        if self.Lx < 2 or self.Ly < 2:
            raise ValueError("torus must be at least 2x2")

    @property
    def n_cells(self) -> int:
        return self.Lx * self.Ly

    @property
    def n_edge_sites(self) -> int:
        return 2 * self.n_cells * len(self.edge_dims)

    def wrap(self, x: int, y: int) -> tuple[int, int]:
        return x % self.Lx, y % self.Ly

    def edge_site(self, x: int, y: int, orient: int, layer: int = 0) -> int:
        x, y = self.wrap(x, y)
        return (layer * 2 * self.n_cells) + (y * self.Lx + x) * 2 + orient

    def vertex_site(self, x: int, y: int, layer: int = 0) -> int:
        x, y = self.wrap(x, y)
        return self.n_edge_sites + layer * self.n_cells + y * self.Lx + x

    def system(self) -> QuditSystem:
        """The lattice's qudit system, built on first use and then shared."""
        system = self.__dict__.get("_system")
        if system is None:
            dims = []
            for d in self.edge_dims:
                dims.extend([d] * (2 * self.n_cells))
            for d in self.vertex_dims:
                dims.extend([d] * self.n_cells)
            system = QuditSystem(dims)
            object.__setattr__(self, "_system", system)
        return system

    def site_legend(self) -> dict:
        """Human/CLI-readable description of the site indexing."""
        legend = {}
        for layer, d in enumerate(self.edge_dims):
            for y in range(self.Ly):
                for x in range(self.Lx):
                    for o, name in ((H, "H"), (V, "V")):
                        legend[self.edge_site(x, y, o, layer)] = (
                            f"edge {name}({x},{y}) layer {layer} (d={d})")
        for layer, d in enumerate(self.vertex_dims):
            for y in range(self.Ly):
                for x in range(self.Lx):
                    legend[self.vertex_site(x, y, layer)] = (
                        f"vertex ({x},{y}) layer {layer} (d={d})")
        return {str(k): legend[k] for k in sorted(legend)}


# ---------------------------------------------------------------------------
# Path specifications
# ---------------------------------------------------------------------------

_MOVES = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}


@dataclass(frozen=True)
class PathSpec:
    """An oriented lattice path: a start cell/vertex plus E/N/W/S moves."""

    kind: Literal["direct", "dual"]
    start: tuple[int, int]
    moves: tuple[str, ...]
    closed: bool = False

    def __post_init__(self):
        for m in self.moves:
            if m not in _MOVES:
                raise ValueError(f"invalid move {m!r}")

    def points(self, lattice: TorusLattice) -> list[tuple[int, int]]:
        pts = [lattice.wrap(*self.start)]
        for m in self.moves:
            dx, dy = _MOVES[m]
            pts.append(lattice.wrap(pts[-1][0] + dx, pts[-1][1] + dy))
        return pts

    def validate(self, lattice: TorusLattice) -> None:
        pts = self.points(lattice)
        if self.closed and pts[0] != pts[-1]:
            raise ValueError("closed path must return to its start")

    @staticmethod
    def from_points(kind: str, points: Sequence[tuple[int, int]],
                    lattice: TorusLattice, closed: bool = False) -> "PathSpec":
        """Build a move list from consecutive (wrapped) lattice points."""
        moves = []
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            dx = (x1 - x0) % lattice.Lx
            dy = (y1 - y0) % lattice.Ly
            if (dx, dy) == (1, 0):
                moves.append("E")
            elif (dx, dy) == (lattice.Lx - 1, 0):
                moves.append("W")
            elif (dx, dy) == (0, 1):
                moves.append("N")
            elif (dx, dy) == (0, lattice.Ly - 1):
                moves.append("S")
            else:
                raise ValueError("consecutive points must be adjacent")
        return PathSpec(kind, tuple(points[0]), tuple(moves), closed=closed)


def dual_loop_around_vertex(x: int, y: int) -> PathSpec:
    """Counter-clockwise dual loop through the four plaquettes around v(x,y)."""
    return PathSpec("dual", (x - 1, y - 1), ("E", "N", "W", "S"), closed=True)


def direct_loop_around_plaquette(x: int, y: int) -> PathSpec:
    """Counter-clockwise direct loop around plaquette p(x,y)."""
    return PathSpec("direct", (x, y), ("E", "N", "W", "S"), closed=True)


# ---------------------------------------------------------------------------
# Lattice models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeModel:
    """A built model: geometry, parameters, and named anyon labels."""

    kind: str  # "tc" | "ds" | "tqd" | "spt"
    lattice: TorusLattice
    params: TqdParams | None = None
    tc_N: int | None = None
    labels: dict = field(default_factory=dict)
    # per-layer scalar phase exponents carried by the vertex terms
    phase_fix: tuple[int, ...] = ()
    # string_operator's memo; see there for the key
    _strings: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def system(self) -> QuditSystem:
        return self.lattice.system()

    @property
    def n_layers(self) -> int:
        return len(self.lattice.edge_dims)

    def label(self, name: "str | AnyonLabel") -> AnyonLabel:
        if isinstance(name, AnyonLabel):
            return name
        if name in self.labels:
            return self.labels[name]
        parsed = self._parse_em(name)
        if parsed is not None:
            return parsed
        raise KeyError(f"unknown label {name!r} for model kind {self.kind}")

    def _parse_em(self, name: str) -> AnyonLabel | None:
        """Parse 'e', 'm', 'em', 'e^2m^-1', 'e2m3' for single-layer models."""
        if self.n_layers != 1:
            return None
        m = re.fullmatch(r"(?:e\^?(-?\d+)?)?(?:m\^?(-?\d+)?)?", name)
        if not m or (m.group(0) == "" and name != "1"):
            if name == "1":
                return AnyonLabel((0,), (0,))
            return None
        p = int(m.group(1)) if m.group(1) else (1 if "e" in name else 0)
        q = int(m.group(2)) if m.group(2) else (1 if "m" in name else 0)
        return AnyonLabel((q,), (p,))

    # -- transport segments --------------------------------------------------

    def _bound_charge(self, flux: Sequence[int]) -> tuple[int, ...]:
        """Charge bound to a flux by the model parameters (zero for plain
        toric codes)."""
        p = self.params
        if p is None:
            return (0,) * self.n_layers
        bound = []
        for j in range(p.M):
            v = p.n[j] * flux[j]
            for i in range(j):
                v += (p.N[j] // p.N[i]) * p.nij[i][j] * flux[i]
            bound.append(v)
        return tuple(bound)

    def _segment(self, cell: tuple[int, int], move: str,
                 label: AnyonLabel, bound: bool = True) -> PauliOperator:
        """Transport the composite one step from `cell` in direction `move`.

        With ``bound=True`` the flux-bound charge hops on the far edge of the
        destination cell and only the excess charge hops on the near edge;
        with ``bound=False`` all charge hops on the near edge.
        """
        lat = self.lattice
        x, y = lat.wrap(*cell)
        system = self.system
        if move == "W":
            return adjoint(self._segment((x - 1, y), "E", label, bound))
        if move == "S":
            return adjoint(self._segment((x, y - 1), "N", label, bound))
        rider = self._bound_charge(label.flux) if bound \
            else (0,) * self.n_layers
        xmap: dict[int, int] = {}
        zmap: dict[int, int] = {}
        for layer in range(self.n_layers):
            f = label.flux[layer]
            c = label.charge[layer] - rider[layer]
            r = rider[layer]
            if move == "E":
                if f:
                    xmap[lat.edge_site(x + 1, y, V, layer)] = f
                if c:
                    zmap[lat.edge_site(x, y, H, layer)] = c
                if r:
                    zmap[lat.edge_site(x + 1, y + 1, H, layer)] = r
            elif move == "N":
                if f:
                    xmap[lat.edge_site(x, y + 1, H, layer)] = -f
                if c:
                    zmap[lat.edge_site(x, y, V, layer)] = c
                if r:
                    zmap[lat.edge_site(x + 1, y + 1, V, layer)] = r
            else:
                raise ValueError(move)
        return PauliOperator(system, x=xmap, z=zmap)

    def check_path(self, label: AnyonLabel, path: PathSpec) -> None:
        """Reject a path invalid on this lattice or of the wrong kind."""
        path.validate(self.lattice)
        if label.path_kind != path.kind:
            raise ValueError(
                f"label needs a {label.path_kind} path, got {path.kind}")

    def string_segments(self, label: AnyonLabel,
                        path: PathSpec) -> list[PauliOperator]:
        self.check_path(label, path)
        segs = []
        pts = path.points(self.lattice)
        for cell, move in zip(pts, path.moves):
            segs.append(self._segment(cell, move, label))
        return segs


def string_operator(model: LatticeModel, label: "str | AnyonLabel",
                    path: PathSpec) -> PauliOperator:
    """Product of short transport segments in path order.

    Memoized on the model. The key is the path plus, per layer, the flux,
    the charge and the flux-bound charge, each mod the layer dimension d:
    every segment exponent is one of these or a difference of two of them,
    mod d, and every phase follows from the reduced exponents. The bound
    charge has to be in the key because it is computed from the unreduced
    flux: on twisted N=[2,4] the fluxes (4,1) and (0,1) agree mod the
    layer dimensions (4, 16) but bind different charges, so their strings
    differ. The label and path checks run on every call, hit or miss. A hit
    returns the stored operator itself; Pauli operators are never mutated.
    """
    lab = model.label(label)
    model.check_path(lab, path)
    rider = model._bound_charge(lab.flux)
    key = (tuple((f % d, c % d, r % d) for f, c, r, d in
                 zip(lab.flux, lab.charge, rider, model.lattice.edge_dims)),
           path)
    op = model._strings.get(key)
    if op is None:
        op = product(model.string_segments(lab, path), system=model.system)
        model._strings[key] = op
    return op


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _tc_like_generators(model: LatticeModel,
                        flux_labels: list[AnyonLabel],
                        charge_labels: list[AnyonLabel],
                        edge_labels: list[AnyonLabel] | None = None
                        ) -> list[PauliOperator]:
    """Vertex terms as flux-label loops, plaquette terms as charge-label
    loops, and optional two-body edge terms from condensed-boson segments."""
    lat = model.lattice
    gens: list[PauliOperator] = []
    for lab in flux_labels:
        for y in range(lat.Ly):
            for x in range(lat.Lx):
                gens.append(string_operator(
                    model, lab, dual_loop_around_vertex(x, y)))
    for lab in charge_labels:
        for y in range(lat.Ly):
            for x in range(lat.Lx):
                gens.append(string_operator(
                    model, lab, direct_loop_around_plaquette(x, y)))
    if edge_labels:
        for lab in edge_labels:
            for y in range(lat.Ly):
                for x in range(lat.Lx):
                    # C for V(x, y): one east dual step from cell (x-1, y).
                    gens.append(model._segment((x - 1, y), "E", lab,
                                               bound=False))
                    # C for H(x, y): one north dual step from cell (x, y-1).
                    gens.append(model._segment((x, y - 1), "N", lab,
                                               bound=False))
    return gens


def _flux_phase_corrections(system: QuditSystem,
                            gens: list[PauliOperator],
                            per_layer: int, n_layers: int) -> list[int]:
    """Uniform scalar phase exponent per layer for the vertex terms.

    The first ``n_layers * per_layer`` generators are the vertex terms in
    layer-major order. For every combination of generators that is a scalar,
    adding m_i to each layer-i vertex term shifts its phase by m_i times the
    layer's total coefficient; solve for the m_i that cancel all such phases.
    """
    group = StabilizerGroup(system, gens, validate=False)
    kernel = group._get_solver().kernel_basis()
    if not kernel:
        return [0] * n_layers
    D2 = 2 * system.D
    rows = [[sum(vec[i * per_layer:(i + 1) * per_layer]) % D2
             for i in range(n_layers)] for vec in kernel]
    rhs = [(-group.combination(vec).phase) % D2 for vec in kernel]
    constraint = IntMatrix(rows, cols=n_layers)
    sol = solve_linear_mod(constraint, rhs, [D2] * len(rows))
    if sol is None:
        raise ValueError(
            "no uniform vertex-term phase makes the group scalar-consistent")
    # canonicalize: lexicographically smallest solution mod 2D
    solutions = {tuple(s % D2 for s in sol)}
    frontier = list(solutions)
    raw_shifts = ModSolver(constraint, [D2] * len(rows)).kernel_basis() \
        if rows else [[1 if j == i else 0 for j in range(n_layers)]
                      for i in range(n_layers)]
    shifts = {tuple(s % D2 for s in vec) for vec in raw_shifts}
    shifts.discard((0,) * n_layers)
    while frontier:
        base = frontier.pop()
        for shift in shifts:
            nxt = tuple((b + s) % D2 for b, s in zip(base, shift))
            if nxt not in solutions:
                solutions.add(nxt)
                frontier.append(nxt)
    return list(min(solutions))


def _apply_phase_fix(system: QuditSystem, gens: list[PauliOperator],
                     per_layer: int, fix: Sequence[int]) -> list[PauliOperator]:
    out = list(gens)
    for i, m in enumerate(fix):
        if m:
            for k in range(i * per_layer, (i + 1) * per_layer):
                out[k] = multiply(scalar(system, m), out[k])
    return out


def build_zn_tc(N: int, Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """Z_N toric code: A_v = X^{+-1} on incident edges, B_p = Z^{+-1} loop."""
    if N < 1:
        raise ValueError("N must be >= 1")
    lattice = TorusLattice(Lx, Ly, (N,))
    labels = {"e": AnyonLabel((0,), (1,)), "m": AnyonLabel((1,), (0,))}
    model = LatticeModel("tc", lattice, tc_N=N, labels=labels)
    gens = _tc_like_generators(model, [labels["m"]], [labels["e"]])
    return StabilizerGroup(model.system, gens), model


def _tqd_labels(params: TqdParams) -> dict[str, AnyonLabel]:
    """Charge, flux, and condensed-boson labels in layer coordinates."""
    M = params.M
    labels: dict[str, AnyonLabel] = {}
    for i in range(M):
        charge = [0] * M
        charge[i] = params.N[i]
        labels[f"c{i + 1}"] = AnyonLabel((0,) * M, tuple(charge))
    for i in range(M):
        flux = [0] * M
        flux[i] = 1
        charge = [0] * M
        charge[i] = params.n[i]
        for j in range(i + 1, M):
            if params.nij[i][j]:
                charge[j] = (params.N[j] // params.N[i]) * params.nij[i][j]
        labels[f"phi{i + 1}"] = AnyonLabel(tuple(flux), tuple(charge))
    for i in range(M):
        flux = [0] * M
        flux[i] = -params.N[i]
        charge = [0] * M
        charge[i] = params.N[i] * params.n[i]
        for j in range(i):
            charge[j] = params.N[j] * params.nij[i][j]
        labels[f"b{i + 1}"] = AnyonLabel(tuple(flux), tuple(charge))
    return labels


def build_tqd(params: TqdParams, Lx: int,
              Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """TQD stabilizer model: layers of dimension N_i^2 with terms
    A_{v,i} (flux loops), B_{p,i} (charge loops), C_{e,i} (boson segments)."""
    lattice = TorusLattice(Lx, Ly, tuple(N * N for N in params.N))
    labels = _tqd_labels(params)
    model = LatticeModel("tqd", lattice, params=params, labels=labels)
    M = params.M
    gens = _tc_like_generators(
        model,
        [labels[f"phi{i + 1}"] for i in range(M)],
        [labels[f"c{i + 1}"] for i in range(M)],
        [labels[f"b{i + 1}"] for i in range(M)])
    fix = _flux_phase_corrections(model.system, gens, lattice.n_cells, M)
    gens = _apply_phase_fix(model.system, gens, lattice.n_cells, fix)
    model = replace(model, phase_fix=tuple(fix))
    return StabilizerGroup(model.system, gens), model


def build_ds(Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """Double-semion stabilizer model (single d=4 layer; N=2, n=1)."""
    group, tqd_model = build_tqd(DS_PARAMS, Lx, Ly)
    labels = dict(tqd_model.labels)
    labels["s"] = labels["phi1"]                         # flux 1, charge 1
    labels["sbar"] = AnyonLabel((-1,), (1,))             # flux -1, charge 1
    labels["ssbar"] = AnyonLabel((0,), (2,))             # pure charge 2
    model = LatticeModel("ds", tqd_model.lattice, params=DS_PARAMS,
                         labels=labels, phase_fix=tqd_model.phase_fix)
    return StabilizerGroup(model.system, group.generators), model


def ds_edge_terms(model: LatticeModel) -> list[PauliOperator]:
    """The {C_e} terms of the DS/TQD model (same order as in the builders)."""
    lat = model.lattice
    params = model.params
    labels = _tqd_labels(params)
    terms = []
    for i in range(params.M):
        lab = labels[f"b{i + 1}"]
        for y in range(lat.Ly):
            for x in range(lat.Lx):
                terms.append(model._segment((x - 1, y), "E", lab,
                                            bound=False))
                terms.append(model._segment((x, y - 1), "N", lab,
                                            bound=False))
    return terms


def vertex_terms(model: LatticeModel) -> list[PauliOperator]:
    """The {A_{v,i}} flux-loop terms (with their scalar phases),
    vertex-major order."""
    lat = model.lattice
    params = model.params
    labels = _tqd_labels(params)
    fix = model.phase_fix or (0,) * params.M
    return [multiply(scalar(model.system, fix[i]),
                     string_operator(model, labels[f"phi{i + 1}"],
                                     dual_loop_around_vertex(x, y)))
            for i in range(params.M)
            for y in range(lat.Ly) for x in range(lat.Lx)]


def plaquette_terms(model: LatticeModel) -> list[PauliOperator]:
    """The {B_{p,i}} charge-loop terms, plaquette-major order."""
    lat = model.lattice
    params = model.params
    labels = _tqd_labels(params)
    return [string_operator(model, labels[f"c{i + 1}"],
                            direct_loop_around_plaquette(x, y))
            for i in range(params.M)
            for y in range(lat.Ly) for x in range(lat.Lx)]


def tc_stack_group(params: TqdParams, Lx: int, Ly: int) -> StabilizerGroup:
    """Stack of plain Z_{N_i^2} toric codes on the layered lattice used by
    the corresponding twisted model (no bound charges, no edge terms)."""
    lattice = TorusLattice(Lx, Ly, tuple(N * N for N in params.N))
    model = LatticeModel("tc", lattice)
    M = params.M
    flux = [AnyonLabel(tuple(1 if j == i else 0 for j in range(M)),
                       (0,) * M) for i in range(M)]
    charge = [AnyonLabel((0,) * M,
                         tuple(1 if j == i else 0 for j in range(M)))
              for i in range(M)]
    gens = _tc_like_generators(model, flux, charge)
    return StabilizerGroup(model.system, gens)


def condensation_equal(params: TqdParams, Lx: int, Ly: int) -> bool:
    """Measuring the two-body edge terms on the toric-code stack must give
    exactly the twisted model's stabilizer group (phases included)."""
    group, model = build_tqd(params, Lx, Ly)
    stack = tc_stack_group(params, Lx, Ly)
    measured = measure(stack, ds_edge_terms(model))
    return groups_equal(measured, group)


def build_spt(Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """SPT model: DS edge layer plus vertex qubits; terms A_v X_v, C_e, D_e."""
    lattice = TorusLattice(Lx, Ly, (4,), vertex_dims=(2,))
    labels = {"s": AnyonLabel((1,), (1,)), "sbar": AnyonLabel((-1,), (1,)),
              "ssbar": AnyonLabel((0,), (2,))}
    model = LatticeModel("spt", lattice, params=DS_PARAMS, labels=labels)
    system = model.system
    gens: list[PauliOperator] = []
    for y in range(Ly):
        for x in range(Lx):
            a_v = string_operator(model, "s", dual_loop_around_vertex(x, y))
            x_v = PauliOperator(system, x={lattice.vertex_site(x, y): 1})
            gens.append(multiply(a_v, x_v))
    gens.extend(spt_edge_terms(model, which="C"))
    gens.extend(spt_edge_terms(model, which="D"))
    fix = _flux_phase_corrections(system, gens, lattice.n_cells, 1)
    gens = _apply_phase_fix(system, gens, lattice.n_cells, fix)
    model = replace(model, phase_fix=tuple(fix))
    return StabilizerGroup(system, gens), model


def spt_edge_terms(model: LatticeModel, which: str) -> list[PauliOperator]:
    """C_e (boson segments) or D_e (ss-bar hops bound to vertex charges)."""
    lat = model.lattice
    system = model.system
    boson = AnyonLabel((-2,), (2,))
    terms = []
    for y in range(lat.Ly):
        for x in range(lat.Lx):
            if which == "C":
                terms.append(model._segment((x - 1, y), "E", boson,
                                            bound=False))
                terms.append(model._segment((x, y - 1), "N", boson,
                                            bound=False))
            elif which == "D":
                # D_e = Z_e^2 Z_u Z_w for the two endpoints u, w of edge e.
                for orient, (ex, ey) in ((V, (x, y)), (H, (x, y))):
                    u = lat.vertex_site(ex, ey)
                    w = (lat.vertex_site(ex + 1, ey) if orient == H
                         else lat.vertex_site(ex, ey + 1))
                    terms.append(PauliOperator(
                        system,
                        z={lat.edge_site(ex, ey, orient): 2, u: 1, w: 1}))
            else:
                raise ValueError(which)
    return terms


def build_hatted_ds(Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """DS terms on the SPT geometry plus X_v on every vertex qubit.

    Measuring the D_e operators on this group yields the SPT model.
    """
    _, model = build_spt(Lx, Ly)
    lattice = model.lattice
    system = model.system
    gens: list[PauliOperator] = []
    for y in range(Ly):
        for x in range(Lx):
            gens.append(string_operator(model, "s",
                                        dual_loop_around_vertex(x, y)))
    gens.extend(spt_edge_terms(model, which="C"))
    for y in range(Ly):
        for x in range(Lx):
            gens.append(PauliOperator(system,
                                      x={lattice.vertex_site(x, y): 1}))
    fix = _flux_phase_corrections(system, gens, lattice.n_cells, 1)
    gens = _apply_phase_fix(system, gens, lattice.n_cells, fix)
    model = replace(model, phase_fix=tuple(fix))
    return StabilizerGroup(system, gens), model


# ---------------------------------------------------------------------------
# Model-spec JSON
# ---------------------------------------------------------------------------


def build_from_spec(spec: dict) -> tuple[StabilizerGroup, LatticeModel]:
    """Build from {"type": ..., "N": [...], "n": [...], "nij": [[...]],
    "Lx": int, "Ly": int}."""
    kind = spec.get("type")
    Lx = int(spec.get("Lx", spec.get("L", 3)))
    Ly = int(spec.get("Ly", spec.get("L", Lx)))
    if kind == "tc":
        N = spec.get("N", [2])
        N = N[0] if isinstance(N, (list, tuple)) else int(N)
        return build_zn_tc(int(N), Lx, Ly)
    if kind == "ds":
        return build_ds(Lx, Ly)
    if kind == "tqd":
        params = TqdParams(spec.get("N", []), spec.get("n", []),
                           spec.get("nij"))
        return build_tqd(params, Lx, Ly)
    if kind == "spt":
        return build_spt(Lx, Ly)
    raise ValueError(f"unknown model type {kind!r}")
