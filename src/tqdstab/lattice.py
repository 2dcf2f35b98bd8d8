"""Stabilizer-model builders on an Lx x Ly torus.

Geometry: square lattice with periodic boundaries. Cell (x, y) owns
- vertex v(x, y),
- horizontal edge H(x, y) from v(x, y) to v(x+1, y),
- vertical edge V(x, y) from v(x, y) to v(x, y+1),
- plaquette p(x, y) with corners v(x,y), v(x+1,y), v(x+1,y+1), v(x,y+1).

Every generator and string operator is built from *hops*, one-step
transports of a flux/charge composite, all defined by ``LatticeModel._hop``.
A flux f binds the charge r prescribed by the model parameters; the bound
charge lands on the far edge of the destination cell, and the excess charge
c - r hops on the near edge of the source cell, which is also where pure
charges move on the direct lattice. Per layer, an E hop from cell (x, y)
puts X^{f} on the crossed edge V(x+1, y), Z^{c-r} on H(x, y) and Z^{r} on
H(x+1, y+1); an N hop puts X^{-f} on H(x, y+1), Z^{c-r} on V(x, y) and
Z^{r} on V(x+1, y+1); a W or S hop is the E or N hop from the cell west or
south with its exponents negated. A string operator is one walk over its
path's hops. Closed loops reproduce the vertex and plaquette terms of the
models; the two-body edge terms are single hops with the unbound placement
(all charge on the near edge).
Each layer-i vertex term also carries the scalar phase theta(phi_i) =
e^{2 pi i n_i / N_i^2}, the spin of the flux it moves around its vertex;
with it every scalar element of the generated group equals +1, which the
builder checks on the group it makes.
Every term type is built once, at cell (0, 0): the loops and hops by one
string walk, the vertex phase written on the vertex term. One tiler,
``_tile``, places each copy with ``TorusLattice.shift``, cells y-major,
then x; translation maps sites onto sites of equal dimension, so every
copy has its origin term's exponents and phase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from math import gcd
from typing import Literal, Sequence

from .pauli import PauliOperator, QuditSystem, _make, multiply
from .stabilizer import (InconsistentGroupError, StabilizerGroup,
                         groups_equal, measure, scalar_consistency)


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
                if i == j or not (0 <= i < M and 0 <= j < M):
                    raise ValueError(f"nij key {(i, j)} is not a pair "
                                     f"i != j in 0..{M - 1}")
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

    def cell_of(self, site: int) -> tuple[int, int]:
        """The cell (x, y) of a site: edge_site and vertex_site inverted
        on the cell (the layer and orientation stay in the index)."""
        n, vertex = self.n_cells, site - self.n_edge_sites
        cell = vertex % n if vertex >= 0 else site % (2 * n) // 2
        return cell % self.Lx, cell // self.Lx

    def shift(self, site: int, dx: int, dy: int) -> int:
        """The site translated by (dx, dy) cells, in its own layer and
        orientation, so of its own dimension."""
        x, y = self.cell_of(site)
        tx, ty = self.wrap(x + dx, y + dy)
        step = 2 if site < self.n_edge_sites else 1
        return site + step * ((ty - y) * self.Lx + tx - x)

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


# ---------------------------------------------------------------------------
# Path specifications
# ---------------------------------------------------------------------------

_MOVES = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}
# E and N hops: (dx, dy, orientation) of X site, near, far edge; X sign.
_HOPS = {"E": (((1, 0, V), (0, 0, H), (1, 1, H)), 1),
         "N": (((0, 1, H), (0, 0, V), (1, 1, V)), -1)}


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

    kind: str  # "tc" | "ds" | "tqd" | "spt" | "hatted-ds"
    lattice: TorusLattice
    params: TqdParams | None = None
    tc_N: int | None = None
    labels: dict = field(default_factory=dict)
    # per layer, the vertex terms' scalar phase exponent (theta(phi_i))
    phase_fix: tuple[int, ...] = ()
    # the builder's stabilizer group; None on a hand-built model
    group: StabilizerGroup | None = field(default=None, repr=False,
                                          compare=False)
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

    # -- transport hops ------------------------------------------------------

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

    def _hop(self, x: int, y: int, move: str,
             layers: Sequence[tuple[int, int, int]]) -> tuple[list, list]:
        """X and Z terms, as (site, exponent) pairs, of one hop from cell
        (x, y), as the module docstring places them; ``layers`` holds
        (f, c, r) per layer, with r = 0 when unbound. No hop has X and Z on
        one site, so its phase is 0 and negating it gives its adjoint."""
        lat, sign = self.lattice, 1
        if move in ("W", "S"):
            dx, dy = _MOVES[move]
            x, y, move, sign = x + dx, y + dy, "E" if move == "W" else "N", -1
        offsets, xsign = _HOPS[move]
        xsite, near, far = [lat.edge_site(x + dx, y + dy, orient)
                            for dx, dy, orient in offsets]
        xterms, zterms, stride = [], [], 2 * lat.n_cells
        for layer, (f, c, r) in enumerate(layers):
            shift = stride * layer
            if f:
                xterms.append((xsite + shift, xsign * sign * f))
            if c != r:
                zterms.append((near + shift, sign * (c - r)))
            if r:
                zterms.append((far + shift, sign * r))
        return xterms, zterms

    def _segment(self, cell: tuple[int, int], move: str,
                 label: AnyonLabel) -> PauliOperator:
        """A two-body edge term: one hop of `label` from `cell` with the
        unbound placement (all charge on the near edge)."""
        xterms, zterms = self._hop(*cell, move, tuple(
            zip(label.flux, label.charge, (0,) * self.n_layers)))
        return _make(self.system, 0, dict(xterms), dict(zterms))


def string_operator(model: LatticeModel, label: "str | AnyonLabel",
                    path: PathSpec) -> PauliOperator:
    """Product of the path's hops in order, memoized on the model.

    The key is the path plus, per layer, the flux, the charge and the
    flux-bound charge, each mod the layer dimension d: every hop exponent
    is one of these or a difference of two, mod d, and every phase follows
    from the reduced exponents. The bound charge is in the key because it
    comes from the unreduced flux: on twisted N=[2,4] the fluxes (4,1) and
    (0,1) agree mod the layer dimensions (4, 16) but bind different charges.
    Every call checks the path kind against the label; a hit then returns
    the stored operator itself (Pauli operators are never mutated). A miss
    walks the path once into one x and one z dict, adding multiply's
    reordering phase 2*(D/d)*z*x where an X term meets Z on its site; that
    term is unchanged mod 2D when z or x moves by a multiple of d, so one
    reduction at the end is exact. The walk also rejects a closed path
    that does not close, so no invalid path (the key holds it) is stored.
    """
    lab = model.label(label)
    if lab.path_kind != path.kind:
        raise ValueError(
            f"label needs a {lab.path_kind} path, got {path.kind}")
    lat = model.lattice
    layers = tuple((f % d, c % d, r % d) for f, c, r, d in zip(
        lab.flux, lab.charge, model._bound_charge(lab.flux), lat.edge_dims))
    op = model._strings.get((layers, path))
    if op is None:
        D, dims = model.system.D, model.system.dims
        phase, xs, zs = 0, {}, {}
        x, y = path.start
        for move in path.moves:
            xterms, zterms = model._hop(x, y, move, layers)
            for site, e in xterms:
                z = zs.get(site)
                if z:
                    phase += 2 * (D // dims[site]) * z * e
                xs[site] = xs.get(site, 0) + e
            for site, e in zterms:
                zs[site] = zs.get(site, 0) + e
            dx, dy = _MOVES[move]
            x, y = x + dx, y + dy
        if path.closed and lat.wrap(x, y) != lat.wrap(*path.start):
            raise ValueError("closed path must return to its start")
        op = model._strings[layers, path] = _make(model.system, phase, xs, zs)
    return op


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _vertex_phases(model: LatticeModel) -> tuple[int, ...]:
    """Per layer, the vertex terms' phase theta(phi_i) = e^{2 pi i n_i /
    N_i^2} for the model's params: exponent 2 n_i D / N_i^2 mod 2D in
    units of e^{i pi/D}; 0 on every layer of a plain toric code."""
    p, D = model.params, model.system.D
    if p is None:
        return (0,) * model.n_layers
    return tuple(2 * n * D // N ** 2 % (2 * D) for N, n in zip(p.N, p.n))


def _origin_terms(model: LatticeModel,
                  flux_labels: list[AnyonLabel],
                  charge_labels: list[AnyonLabel],
                  edge_labels: Sequence[AnyonLabel] = ()
                  ) -> list[list[PauliOperator]]:
    """The tc-like term types at cell (0, 0), one block per label: the
    vertex loop of each flux label (layer i's carries its vertex phase),
    the plaquette loop of each charge label, and the two unbound hops of
    each condensed-boson label, C for V(0, 0) (one east dual step from
    cell (-1, 0)) then C for H(0, 0) (one north step from cell (0, -1))."""
    blocks = []
    for lab, m in zip(flux_labels, _vertex_phases(model)):
        loop = string_operator(model, lab, dual_loop_around_vertex(0, 0))
        blocks.append([_make(model.system, loop.phase + m, loop.x, loop.z)])
    blocks += [[string_operator(model, lab, direct_loop_around_plaquette(
        0, 0))] for lab in charge_labels]
    blocks += [[model._segment((-1, 0), "E", lab),
                model._segment((0, -1), "N", lab)] for lab in edge_labels]
    return blocks


def _tile(model: LatticeModel, blocks: Sequence[Sequence[PauliOperator]]
          ) -> list[PauliOperator]:
    """Every cell-(0, 0) term placed on every cell: block by block, cells
    y-major, then x, and a block's terms in order inside each cell."""
    lat = model.lattice
    return [_make(model.system, t.phase,
                  {lat.shift(s, x, y): e for s, e in t.x.items()},
                  {lat.shift(s, x, y): e for s, e in t.z.items()})
            for block in blocks for y in range(lat.Ly)
            for x in range(lat.Lx) for t in block]


def _with_phase_fix(model: LatticeModel, gens: list[PauliOperator]
                    ) -> tuple[StabilizerGroup, LatticeModel]:
    """Make the model's one group from `gens`, whose vertex terms carry
    _vertex_phases(model), and check it there: InconsistentGroupError if
    a combination of its generators is a nontrivial scalar. The model
    records the phases as its phase_fix."""
    fix, D = _vertex_phases(model), model.system.D
    group = StabilizerGroup(model.system, gens)
    witness = scalar_consistency(group).witness
    if witness is not None:
        raise InconsistentGroupError(
            f"vertex-term phases {fix} leave a nontrivial scalar (phase "
            f"{witness[1]}/{2 * D}) in the group")
    return group, replace(model, phase_fix=fix, group=group)


def build_zn_tc(N: int, Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """Z_N toric code: A_v = X^{+-1} on incident edges, B_p = Z^{+-1} loop."""
    if N < 1:
        raise ValueError("N must be >= 1")
    lattice = TorusLattice(Lx, Ly, (N,))
    labels = {"e": AnyonLabel((0,), (1,)), "m": AnyonLabel((1,), (0,))}
    model = LatticeModel("tc", lattice, tc_N=N, labels=labels)
    gens = _tile(model, _origin_terms(model, [labels["m"]], [labels["e"]]))
    group = StabilizerGroup(model.system, gens)
    return group, replace(model, group=group)


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
    gens = _tile(model, _origin_terms(
        model,
        [labels[f"phi{i + 1}"] for i in range(M)],
        [labels[f"c{i + 1}"] for i in range(M)],
        [labels[f"b{i + 1}"] for i in range(M)]))
    return _with_phase_fix(model, gens)


# The double semion's own names: s is phi1 (flux 1, charge 1), sbar has
# flux -1 and charge 1, and ssbar is the pure charge 2.
_DS_LABELS = {"s": AnyonLabel((1,), (1,)), "sbar": AnyonLabel((-1,), (1,)),
             "ssbar": AnyonLabel((0,), (2,))}


def build_ds(Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """Double-semion stabilizer model (single d=4 layer; N=2, n=1)."""
    group, tqd_model = build_tqd(DS_PARAMS, Lx, Ly)
    labels = {**tqd_model.labels, **_DS_LABELS}
    return group, replace(tqd_model, kind="ds", labels=labels)


def ds_edge_terms(model: LatticeModel) -> list[PauliOperator]:
    """The {C_e} terms of the DS/TQD model (same order as in the builders):
    the last two of a DS/TQD builder's four generator blocks (A terms, B
    terms, then two blocks of C terms, each M * n_cells long)."""
    if model.kind not in ("ds", "tqd") or model.group is None:
        raise ValueError(f"no built DS/TQD terms on a {model.kind!r} model")
    block = model.n_layers * model.lattice.n_cells
    return list(model.group.generators[2 * block:4 * block])


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
    gens = _tile(model, _origin_terms(model, flux, charge))
    return StabilizerGroup(model.system, gens)


def condensation_equal(params: TqdParams, Lx: int, Ly: int) -> bool:
    """Measuring the two-body edge terms on the toric-code stack must give
    exactly the twisted model's stabilizer group (phases included)."""
    group, model = build_tqd(params, Lx, Ly)
    stack = tc_stack_group(params, Lx, Ly)
    measured = measure(stack, ds_edge_terms(model))
    return groups_equal(measured, group)


def _spt_model(kind: str, Lx: int, Ly: int) -> LatticeModel:
    """The SPT geometry (DS edge layer plus vertex qubits), without terms."""
    lattice = TorusLattice(Lx, Ly, (4,), vertex_dims=(2,))
    return LatticeModel(kind, lattice, params=DS_PARAMS,
                        labels=dict(_DS_LABELS))


def _spt_terms(model: LatticeModel
               ) -> tuple[PauliOperator, list[PauliOperator], PauliOperator]:
    """The SPT geometry's terms at cell (0, 0): the DS's A_v (s loop,
    carrying theta(s)), its C_e block (b1 hops), and X_v."""
    (a_v,), c_e = _origin_terms(model, [_DS_LABELS["s"]], [],
                                [_tqd_labels(DS_PARAMS)["b1"]])
    x_v = PauliOperator(model.system, x={model.lattice.vertex_site(0, 0): 1})
    return a_v, c_e, x_v


def build_spt(Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """SPT model: DS edge layer plus vertex qubits; terms A_v X_v, C_e, D_e."""
    model = _spt_model("spt", Lx, Ly)
    a_v, c_e, x_v = _spt_terms(model)
    gens = _tile(model, [[multiply(a_v, x_v)], c_e])
    return _with_phase_fix(model, gens + spt_d_terms(model))


def spt_d_terms(model: LatticeModel) -> list[PauliOperator]:
    """D_e = Z_e^2 Z_u Z_w for the two endpoints u, w of every edge e:
    ss-bar hops bound to vertex charges, V(x, y) then H(x, y) per cell."""
    lat = model.lattice
    return _tile(model, [[PauliOperator(model.system, z={
        lat.edge_site(0, 0, orient): 2, lat.vertex_site(0, 0): 1,
        lat.vertex_site(*end): 1}) for orient, end in ((V, (0, 1)),
                                                       (H, (1, 0)))]])


def build_hatted_ds(Lx: int, Ly: int) -> tuple[StabilizerGroup, LatticeModel]:
    """DS terms on the SPT geometry plus X_v on every vertex qubit, the
    vertex terms carrying theta(s) as in the SPT model.

    Measuring the D_e operators on this group yields the SPT model
    (groups_equal, phases included) on every torus.
    """
    model = _spt_model("hatted-ds", Lx, Ly)
    a_v, c_e, x_v = _spt_terms(model)
    gens = _tile(model, [[a_v], c_e, [x_v]])
    return _with_phase_fix(model, gens)


# ---------------------------------------------------------------------------
# Model-spec JSON
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, key: str) -> list[int]:
    """value as a list of integers; ValueError naming the spec key if it is
    anything else."""
    if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
        raise ValueError(f"spec key {key!r} must be a list of integers, "
                         f"got {value!r}")
    return list(value)


def params_from_spec(spec: dict) -> TqdParams:
    """TqdParams from a spec's "N", "n" (zeros when absent) and "nij": an
    M x M table, or a dict keyed by (i, j), "i,j" or "(i, j)". Each of them
    must hold integers; anything else is a ValueError."""
    if "N" not in spec:
        raise ValueError("missing --N / spec key 'N'")
    N = _int_list(spec["N"], "N")
    n = _int_list(spec["n"], "n") if "n" in spec else [0] * len(N)
    nij = spec.get("nij")
    if isinstance(nij, dict):
        nij = {tuple(int(t) for t in k.strip("()").split(","))
               if isinstance(k, str) else k: v for k, v in nij.items()}
        if not all(map(_is_int, nij.values())):
            raise ValueError(f"spec key 'nij' must map pairs to integers, "
                             f"got {spec['nij']!r}")
    elif nij is not None:
        if not isinstance(nij, (list, tuple)):
            raise ValueError(f"spec key 'nij' must be a table or a dict, "
                             f"got {nij!r}")
        nij = [_int_list(row, "nij") for row in nij]
    return TqdParams(N, n, nij)


def size_from_spec(spec: dict, Lx: int = 3,
                   Ly: int | None = None) -> tuple[int, int]:
    """(Lx, Ly) from a spec's "Lx"/"Ly", else its "L", else the given
    defaults; Ly defaults to the torus's Lx. A size given in the spec must
    be an integer (ValueError naming the key)."""
    for key in ("L", "Lx", "Ly"):
        if key in spec and not _is_int(spec[key]):
            raise ValueError(f"spec key {key!r} must be an integer, "
                             f"got {spec[key]!r}")
    Lx = spec.get("Lx", spec.get("L", Lx))
    Ly = spec.get("Ly", spec.get("L", Lx if Ly is None else Ly))
    return Lx, Ly


def build_from_spec(spec: dict) -> tuple[StabilizerGroup, LatticeModel]:
    """Build from {"type": ..., "N": [...], "n": [...], "nij": ...,
    "L" | "Lx", "Ly": int}; the type defaults to "tqd" when N is given
    and to "ds" otherwise."""
    kind = spec.get("type", "tqd" if "N" in spec else "ds")
    Lx, Ly = size_from_spec(spec)
    if kind == "tc":
        N = spec.get("N", [2])
        N = _int_list(N if isinstance(N, (list, tuple)) else [N], "N")
        if len(N) != 1:
            raise ValueError(f"a tc spec takes one factor N, got {N}")
        return build_zn_tc(N[0], Lx, Ly)
    if kind == "ds":
        return build_ds(Lx, Ly)
    if kind == "tqd":
        return build_tqd(params_from_spec(spec), Lx, Ly)
    if kind == "spt":
        return build_spt(Lx, Ly)
    raise ValueError(f"unknown model type {kind!r}")
