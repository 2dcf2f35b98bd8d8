"""Measure anyon data directly from a lattice model.

Exchange statistics come from the T-junction relation
W1 (W2)^dag W3 = theta(a) W3 (W2)^dag W1 for three strings that share an
endpoint and are ordered counter-clockwise; braiding comes from the
commutation phase of two transversally crossing strings; fusion orders from
braiding-vector triviality. Phases are integer exponents (theta in Z_{2D},
braiding in Z_D) and become Rational01 values only on the way out.
extract_theory walks strings for the k generators and the pair sums
e_g + e_h only, and reads the box off two k x k tables: theta(v) =
2 v^T C v mod 2D for the junction cross terms C, and b(v, w) = v B w mod D
for the crossings B, kept as one row r_v = v B mod D per box vector. The
module also extracts the boundary 3-cocycle of the SPT model from the
failure of the group law of the truncated boundary symmetry.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations_with_replacement
from itertools import product as iproduct
from math import prod
from operator import mul

from .exactmath import IntMatrix, ModSolver, Rational01
from .pauli import (PauliOperator, adjoint, commutation_exponent,
                    identity, multiply, product, product_of_powers)
from .stabilizer import (StabilizerGroup, VerificationError,
                         _commutation_columns, member_with_phase)
from . import anyon
from .lattice import AnyonLabel, LatticeModel, PathSpec, string_operator


class ConfinedLabelError(VerificationError):
    """The label's closed string fails to commute with the stabilizers."""


class InconsistentExtractionError(VerificationError):
    """Measured data fail the theta-ratio identity or the loop certificate."""


class DecompositionError(VerificationError):
    """An endpoint-operator decomposition failed (support overlap)."""


# ---------------------------------------------------------------------------
# T-junction
# ---------------------------------------------------------------------------

_DIR_ANGLE = {"E": 0, "N": 1, "W": 2, "S": 3}


@dataclass(frozen=True)
class JunctionSpec:
    """Three paths sharing the center endpoint, ordered counter-clockwise.

    Each arm is a move sequence walked outward from `center`. Arms must be
    pairwise disjoint away from the center and their initial directions must
    occur in counter-clockwise order.
    """

    center: tuple[int, int]
    arms: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]

    def __post_init__(self):
        if len(self.arms) != 3:
            raise ValueError("a junction needs exactly three arms")
        if any(len(arm) < 1 for arm in self.arms):
            raise ValueError("arms must have length >= 1")
        first = [arm[0] for arm in self.arms]
        if len(set(first)) != 3:
            raise ValueError("arms must leave the center in distinct "
                             "directions")
        a1, a2, a3 = (_DIR_ANGLE[m] for m in first)
        if not 0 < (a2 - a1) % 4 < (a3 - a1) % 4:
            raise ValueError("arms must be ordered counter-clockwise")

    def paths(self, kind: str) -> list[PathSpec]:
        return [PathSpec(kind, self.center, arm) for arm in self.arms]

    def validate(self, model: LatticeModel) -> None:
        torus = model.lattice
        seen: list[set] = []
        for arm in self.arms:
            pts = set(PathSpec("dual", self.center, arm).points(torus))
            pts.discard(torus.wrap(*self.center))
            for other in seen:
                if pts & other:
                    raise ValueError("junction arms overlap away from the "
                                     "center")
            seen.append(pts)


def default_junction(center: tuple[int, int] = (0, 0)) -> JunctionSpec:
    """L-shaped arms of length two leaving the center to the E, N and W."""
    return JunctionSpec(center, (("E", "N"), ("N", "W"), ("W", "S")))


def _cross_exponent(a, b) -> int:
    """c(A1, B3) - c(A2, B3) - c(A1, B2) mod D for junction arms a = (A1, A2,
    A3) and b; bilinear in the arms' exponents, as c is."""
    c = commutation_exponent
    return (c(a[0], b[2]) - c(a[1], b[2]) - c(a[0], b[1])) % a[0].system.D


def _junction_exponent(w1: PauliOperator, w2: PauliOperator,
                       w3: PauliOperator) -> int:
    """t in Z_{2D} with W1 W2^dag W3 = e^{2 pi i t / 2D} W3 W2^dag W1.

    Moving W3 to the front and then W1 to the back gives e^{2 pi i e / D}
    with e = c(W2^dag, W3) + c(W1, W3) + c(W1, W2^dag) for the commutation
    exponents c, and c(P^dag, Q) = -c(P, Q), so no product is formed.
    """
    return 2 * _cross_exponent((w1, w2, w3), (w1, w2, w3)) % (2 * w1.system.D)


def _braid_exponent(horizontal_a: PauliOperator,
                    vertical_b: PauliOperator) -> int:
    """e with B(a, b) = e^{2 pi i e / D}: the vertical loop of b against
    the horizontal loop of a."""
    return commutation_exponent(vertical_b, horizontal_a)


def _fusion_order(theta: int, row, D: int) -> int:
    """Least n >= 1 with n^2 theta = 0 mod 2D and n row = 0 mod D: the
    order of a label of junction exponent theta and braid row `row`, as the
    strings of n a carry n times the exponents of a's."""
    n = 1
    while n * n * theta % (2 * D) or any(n * e % D for e in row):
        n += 1
    return n


class _Probe:
    """Label strings on one model: each label's two noncontractible loops,
    kept, and its junction arms, walked on request; the junction is
    validated once, at the first arms walked. Phases stay integers here;
    the public wrappers make Rational01 values.
    """

    def __init__(self, model: LatticeModel,
                 junction: JunctionSpec | None = None):
        self.model = model
        self.D = model.system.D
        self.junction = default_junction() if junction is None else junction
        self._validated = False
        self._loops: dict[tuple[AnyonLabel, str], PauliOperator] = {}

    def loop(self, lab: AnyonLabel, direction: str) -> PauliOperator:
        op = self._loops.get((lab, direction))
        if op is None:
            op = _noncontractible(self.model, lab, direction)
            self._loops[(lab, direction)] = op
        return op

    def deconfined(self, *labels) -> list[AnyonLabel]:
        """The labels, after one sweep of their horizontal loops against the
        stabilizers; the first that fails to commute raises."""
        labs = [self.model.label(lab) for lab in labels]
        columns = _commutation_columns(model_group(self.model), [
            self.loop(lab, "horizontal") for lab in labs])
        for j, lab in enumerate(labs):
            if any(col[j] for col in columns):
                raise ConfinedLabelError(
                    f"label {lab} is confined: its closed string fails to "
                    "commute with a stabilizer term")
        return labs

    def arms(self, lab: AnyonLabel) -> tuple[PauliOperator, ...]:
        if not self._validated:
            self.junction.validate(self.model)
            self._validated = True
        return tuple(string_operator(self.model, lab, p)
                     for p in self.junction.paths(lab.path_kind))

    def theta(self, lab: AnyonLabel) -> int:
        return _junction_exponent(*self.arms(lab))

    def braid(self, a: AnyonLabel, b: AnyonLabel) -> int:
        return _braid_exponent(self.loop(a, "horizontal"),
                               self.loop(b, "vertical"))


def t_junction_theta(model: LatticeModel, label,
                     junction: JunctionSpec | None = None) -> Rational01:
    """Exchange statistics theta(a) from the T-junction relation, after the
    deconfinement pre-check on the label."""
    probe = _Probe(model, junction)
    return Rational01(probe.theta(*probe.deconfined(label)), 2 * probe.D)


# ---------------------------------------------------------------------------
# Braiding and fusion orders
# ---------------------------------------------------------------------------


def _noncontractible(model: LatticeModel, lab: AnyonLabel,
                     direction: str) -> PauliOperator:
    torus = model.lattice
    if direction == "horizontal":
        path = PathSpec(lab.path_kind, (0, 0), ("E",) * torus.Lx, closed=True)
    elif direction == "vertical":
        path = PathSpec(lab.path_kind, (0, 0), ("N",) * torus.Ly, closed=True)
    else:
        raise ValueError(direction)
    return string_operator(model, lab, path)


def crossing_braiding(model: LatticeModel, a, b) -> Rational01:
    """Full-braid phase B(a, b) from two transversally crossing strings,
    after the deconfinement pre-check on both labels."""
    probe = _Probe(model)
    return Rational01(probe.braid(*probe.deconfined(a, b)), probe.D)


def generating_labels(model: LatticeModel) -> dict[str, AnyonLabel]:
    """The named labels that generate the model's deconfined sector."""
    if model.kind == "tc":
        names = ["e", "m"]
    elif model.kind == "ds":
        names = ["s", "sbar"]
    elif model.kind == "tqd":
        M = model.params.M
        names = [f"phi{i + 1}" for i in range(M)]
        names += [f"c{i + 1}" for i in range(M)]
    else:
        raise ValueError(f"no generating labels for model kind {model.kind!r}")
    return {name: model.label(name) for name in names}


def fusion_order(model: LatticeModel, label,
                 junction: JunctionSpec | None = None) -> int:
    """Smallest n >= 1 with theta(label^n) = 0 and trivial braiding vector,
    read off the label's theta and its braid row with the generators."""
    probe = _Probe(model, junction)
    lab, = probe.deconfined(label)
    return _fusion_order(probe.theta(lab), [
        probe.braid(lab, g) for g in generating_labels(model).values()],
        probe.D)


# ---------------------------------------------------------------------------
# Theory extraction
# ---------------------------------------------------------------------------


def _combine(gen_labels: tuple[AnyonLabel, ...], vec) -> AnyonLabel:
    """The label with exponent vector `vec` over the generator labels."""
    vec = tuple(vec)
    flux = zip(*(g.flux for g in gen_labels))
    charge = zip(*(g.charge for g in gen_labels))
    return AnyonLabel(tuple(sum(map(mul, vec, f)) for f in flux),
                      tuple(sum(map(mul, vec, c)) for c in charge))


class BoxBraiding(Mapping):
    """Read-only braiding table b(v, w) over the box pairs, kept as rows.

    `rows` maps each box vector v, in box order, to r_v = v B mod D for the
    generator braiding matrix B; a lookup is phases[r_v . w mod D], with
    phases[e] = e/D. Keys, their order (v-major) and equality are those of
    the full dict of box pairs, and a key outside the box raises KeyError.
    """

    def __init__(self, rows: dict[tuple[int, ...], list[int]],
                 phases: list[Rational01]):
        self.rows = rows
        self._phases = phases
        self._D = len(phases)

    def __getitem__(self, key) -> Rational01:
        v, w = key
        r = self.rows.get(v)
        if r is None or w not in self.rows:
            raise KeyError(key)
        return self._phases[sum(map(mul, r, w)) % self._D]

    def __iter__(self):
        return ((v, w) for v in self.rows for w in self.rows)

    def __len__(self) -> int:
        return len(self.rows) ** 2


@dataclass(frozen=True)
class ExtractedTheory:
    """Measured statistics tables over the group generated by the labels.

    theta and braiding are keyed by exponent vectors over the generators:
    theta is a dict over the box, and braiding a BoxBraiding lookup over
    box pairs, stored as one row r_v per box vector. theory is the quotient
    by the measured trivial (transparent) vectors.
    """

    generator_names: tuple[str, ...]
    generator_labels: tuple[AnyonLabel, ...]
    fusion_orders: tuple[int, ...]
    theta: dict[tuple[int, ...], Rational01]
    braiding: BoxBraiding
    theory: anyon.AnyonTheory

    def combine(self, vec) -> AnyonLabel:
        return _combine(self.generator_labels, vec)

    def box(self) -> list[tuple[int, ...]]:
        return list(iproduct(*map(range, self.fusion_orders)))


def _box_products(r, orders) -> list[int]:
    """r . w for every w in the box of `orders`, in box order."""
    values = [0]
    for rh, o in zip(r, orders):
        values = [a + rh * j for a in values for j in range(o)]
    return values


def extract_theory(model: LatticeModel,
                   junction: JunctionSpec | None = None) -> ExtractedTheory:
    """Measure the k x k generator tables and assemble the quotient theory.
    Certified: the junction arms and loops of each pair sum e_g + e_h,
    g <= h, carry the product of the generators' strings, so strings are
    linear in v and theta(v) = 2 v^T C v, b(v, w) = v B w. Checked: the
    theta ratio 2 b(v, e_g) = theta(v + e_g) - theta(v) - theta(e_g) at
    every v, which is B[h][g] = C[h][g] + C[g][h] mod D on each (h, g).
    Fusion orders come from C and B, and the quotient by the transparent
    box vectors is presented with q(e_g) = theta(e_g) and b = B."""
    probe = _Probe(model, junction)
    return _extract(probe, _generators(probe))


def _generators(probe: _Probe) -> tuple:
    """Names, deconfined labels, fusion orders and the tables C and B of
    the generators: every string walked, all before the box is made."""
    labels = generating_labels(probe.model)
    gens = probe.deconfined(*labels.values())
    names, k, D = tuple(labels), len(gens), probe.D

    def walk(lab) -> tuple[PauliOperator, ...]:
        return (*probe.arms(lab), probe.loop(lab, "horizontal"),
                probe.loop(lab, "vertical"))

    walked = [walk(lab) for lab in gens]
    for g, h in combinations_with_replacement(range(k), 2):
        pair = walk(gens[g].combine(gens[h]))
        for s, a, b in zip(pair, walked[g], walked[h]):
            ab = multiply(a, b)
            if (s.x, s.z) != (ab.x, ab.z):
                raise InconsistentExtractionError(
                    f"the strings of {names[g]} + {names[h]} are not linear")
    C = [[_cross_exponent(a[:3], b[:3]) for b in walked] for a in walked]
    B = [[probe.braid(g, h) for h in gens] for g in gens]
    for h, g in iproduct(range(k), repeat=2):
        e = (C[h][g] + C[g][h]) % D
        if B[h][g] != e:
            raise InconsistentExtractionError(
                f"B({names[h]}, {names[g]}) = {Rational01(B[h][g], D)}, "
                f"theta ratio {Rational01(2 * e, 2 * D)}")
    orders = tuple(_fusion_order(2 * C[g][g], B[g], D) for g in range(k))
    return names, tuple(gens), orders, C, B


def _extract(probe: _Probe, generators: tuple) -> ExtractedTheory:
    """extract_theory's box tables: integer arithmetic on C and B."""
    names, gen_labels, orders, C, B = generators
    D, k = probe.D, len(names)
    box = list(iproduct(*map(range, orders)))
    theta, rows = {}, {}
    B_cols, C_cols = list(zip(*B)), list(zip(*C))
    for v in box:
        rows[v] = [sum(map(mul, v, col)) % D for col in B_cols]
        theta[v] = 2 * sum(map(mul, v, [sum(map(mul, v, col))
                                        for col in C_cols])) % (2 * D)

    # Quotient by the measured transparent vectors.
    units = [tuple(int(t == g) for t in range(k)) for g in range(k)]
    columns = [[o * t for t in e] for o, e in zip(orders, units)] + [
        list(v) for v in box if any(v) and not theta[v] and not any(rows[v])]
    relations = IntMatrix([[col[r] for col in columns] for r in range(k)],
                          rows=k, cols=len(columns))
    b_phase = [Rational01(e, D) for e in range(D)]
    t_phase = [Rational01(e, 2 * D) for e in range(2 * D)]
    presented = anyon.theory_from_presentation(
        [t_phase[2 * C[g][g] % (2 * D)] for g in range(k)],
        [[b_phase[e] for e in row] for row in B], relations)
    return ExtractedTheory(
        names, gen_labels, orders,
        {vec: t_phase[e] for vec, e in theta.items()},
        BoxBraiding(rows, b_phase), presented.theory)


# The report's theta and braiding tables hold |box| and |box|^2 strings;
# a box above this many vectors is refused rather than written.
REPORT_MAX_BOX = 4096


def extraction_report(model: LatticeModel) -> dict:
    """JSON-ready report; iso_match compares against the theory the model's
    kind predicts. A box above REPORT_MAX_BOX vectors raises ValueError."""
    probe = _Probe(model)
    generators = _generators(probe)
    size = prod(generators[2])
    if size > REPORT_MAX_BOX:
        raise ValueError(f"the box holds {size} vectors, above the "
                         f"report bound of {REPORT_MAX_BOX}")
    ext = _extract(probe, generators)
    box, orders, D = ext.box(), ext.fusion_orders, model.system.D
    if model.kind == "tc":
        target = anyon.zn_tc_theory(model.tc_N)
        target_name = f"Z{model.tc_N} toric code"
    else:
        target = anyon.tqd_theory(model.params)
        target_name = (f"twisted double N={list(model.params.N)} "
                       f"n={list(model.params.n)}")
    b_text = [str(Rational01(e, D)) for e in range(D)]

    def braiding_row(v) -> list[str]:
        # b(v, w) = r_v . w mod D
        return [b_text[e % D]
                for e in _box_products(ext.braiding.rows[v], orders)]

    report = {
        "generators": list(ext.generator_names),
        "fusion_orders": {name: order for name, order in
                          zip(ext.generator_names, orders)},
        "theta": {",".join(map(str, vec)): str(ext.theta[vec])
                  for vec in box},
        "braiding": [braiding_row(v) for v in box],
        "iso_match": anyon.theories_isomorphic(ext.theory, target),
        "target": target_name,
    }
    return report


# ---------------------------------------------------------------------------
# The model's group
# ---------------------------------------------------------------------------


def model_group(model: LatticeModel) -> StabilizerGroup:
    """The stabilizer group the model's builder made."""
    if model.group is None:
        raise ValueError(f"the {model.kind!r} model carries no stabilizer "
                         "group; build it with a lattice builder")
    return model.group


# ---------------------------------------------------------------------------
# SPT boundary cocycle
# ---------------------------------------------------------------------------


def _restrict(P: PauliOperator, sites) -> PauliOperator:
    keep = set(sites)
    return PauliOperator(P.system,
                         x={s: v for s, v in P.x.items() if s in keep},
                         z={s: v for s, v in P.z.items() if s in keep})


def _partial_member(group: StabilizerGroup, gen_indices, target,
                    row_sites) -> PauliOperator | None:
    """A product of the selected generators matching `target` on `row_sites`.

    Returns the matching product (phase included), or None if no combination
    agrees with `target` on every listed site.
    """
    D, dims = group.system.D, group.system.dims
    ops = [target] + [group.generators[i] for i in gen_indices]
    # each op's exponents at row_sites lifted into Z_D: x, then z, per site
    rhs, *columns = [[e * (D // dims[s]) for s in row_sites
                      for e in (op.x.get(s, 0), op.z.get(s, 0))] for op in ops]
    coeffs = ModSolver(columns, [D] * (2 * len(row_sites))).solve(rhs)
    if coeffs is None:
        return None
    return product_of_powers(
        group.system,
        [(group.generators[i], c) for c, i in zip(coeffs, gen_indices)])


def spt_cocycle(model: LatticeModel, ell: int) -> dict:
    """Boundary 3-cocycle table of the SPT model over Z_2^3.

    Truncates the effective boundary symmetry action P_R(1) P~_R(1)^dag to an
    interval of length `ell` along the boundary of the lower-half region R,
    reduces its square to endpoint operators modulo R-supported stabilizers,
    and reads off omega(g,h,k) as the residual phase of the associativity
    relation at the left endpoint.
    """
    if model.kind != "spt":
        raise ValueError("spt_cocycle needs an SPT model")
    if ell < 4:
        raise ValueError("interval length must be at least 4 unit cells")
    torus = model.lattice
    if torus.Lx < ell + 3 or torus.Ly < 5:
        raise ValueError("torus too small: need Lx >= ell + 3 and Ly >= 5")
    group = model_group(model)
    system = group.system
    cells = [torus.cell_of(s) for s in range(system.n_sites)]
    # A vertex term at row y touches rows y-1 .. y+1, so a region of rows
    # 0 .. y_cut-1 contains the terms with 1 <= y <= y_cut-2.
    y_cut = 3

    def in_region(site: int) -> bool:
        return cells[site][1] < y_cut

    # P_R(1): bare symmetry restricted to the lower region.
    p_r = PauliOperator(system, x={
        torus.vertex_site(x, y): 1
        for y in range(y_cut) for x in range(torus.Lx)})
    # P~_R(1): product of the A_v X_v terms supported inside the region.
    r_gen_indices = [i for i, g in enumerate(group.generators)
                     if all(in_region(s) for s in g.support)]
    n_v = torus.Lx * torus.Ly  # builder order: A_v X_v terms come first
    dressed = [group.generators[i] for i in r_gen_indices if i < n_v]
    p_tilde = product(dressed, system=system)
    script_p = multiply(p_r, adjoint(p_tilde))

    # Truncate to the interval [x0, x0 + ell) along the upper boundary of R.
    x0 = 1
    boundary_rows = {y_cut - 1, y_cut}
    window = {s for s, (x, y) in enumerate(cells)
              if y in boundary_rows and x0 <= x < x0 + ell}
    p_ell = _restrict(script_p, window)
    p_ell = PauliOperator(system, x=p_ell.x, z=p_ell.z)  # drop the phase

    # Omega(1,1) from the square, reduced to the endpoints modulo
    # R-supported stabilizers.
    omega_raw = multiply(p_ell, p_ell)
    left_zone = {s for s, (x, y) in enumerate(cells)
                 if y in boundary_rows and (x - (x0 - 1)) % torus.Lx <= 1}
    right_zone = {s for s, (x, y) in enumerate(cells)
                  if y in boundary_rows
                  and (x - (x0 + ell - 2)) % torus.Lx <= 2}
    bulk_sites = [s for s in range(system.n_sites)
                  if s not in left_zone and s not in right_zone]
    matcher = _partial_member(group, r_gen_indices, omega_raw, bulk_sites)
    if matcher is None:
        raise DecompositionError(
            "square of the truncated symmetry is not an R-supported "
            "stabilizer away from the endpoints (wrong truncation window)")
    omega_red = multiply(omega_raw, adjoint(matcher))
    if left_zone & right_zone:
        raise DecompositionError("endpoint zones overlap (interval too "
                                 "short for this torus)")
    support = omega_red.support
    if not support <= (left_zone | right_zone):
        raise DecompositionError(
            f"reduced operator leaks outside the endpoint zones "
            f"({sorted(support - left_zone - right_zone)})")
    omega_left = _restrict(omega_red, left_zone)
    omega_left = PauliOperator(system, x=omega_left.x, z=omega_left.z)

    # R-supported stabilizer group used for the residual-phase query.
    r_group = StabilizerGroup(
        system, [group.generators[i] for i in r_gen_indices])

    def p_of(g: int) -> PauliOperator:
        return p_ell if g % 2 else identity(system)

    def omega_l(g: int, h: int) -> PauliOperator:
        return omega_left if (g % 2, h % 2) == (1, 1) else identity(system)

    table = {}
    for g, h, k in iproduct(range(2), repeat=3):
        pg = p_of(g)
        lhs = product([pg, omega_l(h, k), adjoint(pg), omega_l(g, h + k)],
                      system=system)
        rhs = multiply(omega_l(g, h), omega_l(g + h, k))
        residue = multiply(lhs, adjoint(rhs))
        res = member_with_phase(r_group, residue)
        if res.verdict == "NotMember":
            raise DecompositionError(
                f"associativity residue at {(g, h, k)} is not an R-supported "
                "stabilizer up to phase")
        table[(g, h, k)] = res.residual_phase
    return table


def cocycle_is_valid(table: dict) -> bool:
    """Check the 3-cocycle condition d(omega) = 1 over all Z_2^4 tuples."""
    for g, h, k, l in iproduct(range(2), repeat=4):
        total = (table[((g + h) % 2, k, l)]
                 + table[(g, h, (k + l) % 2)]
                 - table[(g, (h + k) % 2, l)]
                 - table[(h, k, l)]
                 - table[(g, h, k)])
        if not total.is_zero():
            return False
    return True


def spt_report(model: LatticeModel, ell: int) -> dict:
    table = spt_cocycle(model, ell)
    return {
        "interval": ell,
        "omega": {"".join(map(str, key)): str(val)
                  for key, val in sorted(table.items())},
        "cocycle_valid": cocycle_is_valid(table),
        "nontrivial": not table[(1, 1, 1)].is_zero(),
    }
