"""Measure anyon data directly from a lattice model.

Exchange statistics come from the T-junction relation
W1 (W2)^dag W3 = theta(a) W3 (W2)^dag W1 for three strings that share an
endpoint and are ordered counter-clockwise; braiding comes from the
commutation phase of two transversally crossing strings; fusion orders from
braiding-vector triviality. The module also builds the torus logical algebra
from noncontractible strings and extracts the boundary 3-cocycle of the SPT
model from the failure of the group law of the truncated boundary symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import lcm

from .exactmath import IntMatrix, ModSolver, Rational01
from .pauli import (PauliOperator, adjoint, commutation_phase, identity,
                    multiply, power, product)
from .stabilizer import StabilizerGroup, member_with_phase
from . import anyon
from . import lattice as lat
from .lattice import AnyonLabel, LatticeModel, PathSpec, string_operator


class ConfinedLabelError(ValueError):
    """The label's closed string fails to commute with the stabilizers."""


class InconsistentExtractionError(ValueError):
    """Measured braiding disagrees with the theta-ratio identity."""


class DecompositionError(ValueError):
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


def _phase_between(P: PauliOperator, Q: PauliOperator) -> Rational01:
    """phi with P = e^{2 pi i phi} Q, for operators with equal exponents."""
    if P.x != Q.x or P.z != Q.z:
        raise ValueError("operators differ by more than a phase")
    return Rational01(P.phase - Q.phase, 2 * P.system.D)


def check_deconfined(model: LatticeModel, label) -> AnyonLabel:
    """Closed-path commutation pre-check against the model's stabilizers."""
    lab = model.label(label)
    group = model_group(model)
    loop = string_operator(
        model, lab,
        PathSpec(lab.path_kind, (0, 0), ("E",) * model.lattice.Lx,
                 closed=True))
    for gen in group.generators:
        if not commutation_phase(loop, gen).is_zero():
            raise ConfinedLabelError(
                f"label {lab} is confined: its closed string fails to "
                "commute with a stabilizer term")
    return lab


def t_junction_theta(model: LatticeModel, label,
                     junction: JunctionSpec | None = None,
                     check: bool = True) -> Rational01:
    """Exchange statistics theta(a) from the T-junction relation."""
    lab = check_deconfined(model, label) if check else model.label(label)
    if junction is None:
        junction = default_junction()
    junction.validate(model)
    w1, w2, w3 = (string_operator(model, lab, p)
                  for p in junction.paths(lab.path_kind))
    lhs = product([w1, adjoint(w2), w3], system=model.system)
    rhs = product([w3, adjoint(w2), w1], system=model.system)
    return _phase_between(lhs, rhs)


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


def crossing_braiding(model: LatticeModel, a, b,
                      check: bool = True) -> Rational01:
    """Full-braid phase B(a, b) from two transversally crossing strings."""
    if check:
        lab_a = check_deconfined(model, a)
        lab_b = check_deconfined(model, b)
    else:
        lab_a, lab_b = model.label(a), model.label(b)
    wa = _noncontractible(model, lab_a, "horizontal")
    wb = _noncontractible(model, lab_b, "vertical")
    return commutation_phase(wb, wa)


def generating_labels(model: LatticeModel) -> dict[str, AnyonLabel]:
    """The named labels that generate the model's deconfined sector."""
    if model.kind == "tc":
        names = ["e", "m"]
    elif model.kind in ("ds", "spt"):
        names = ["s", "sbar"]
    elif model.kind == "tqd":
        M = model.params.M
        names = [f"phi{i + 1}" for i in range(M)]
        names += [f"c{i + 1}" for i in range(M)]
    else:
        raise ValueError(f"no generating labels for model kind {model.kind!r}")
    return {name: model.label(name) for name in names}


def _is_trivial(model: LatticeModel, lab: AnyonLabel,
                gens: dict[str, AnyonLabel],
                junction: JunctionSpec | None) -> bool:
    if not t_junction_theta(model, lab, junction, check=False).is_zero():
        return False
    return all(crossing_braiding(model, lab, g, check=False).is_zero()
               for g in gens.values())


def fusion_order(model: LatticeModel, label,
                 junction: JunctionSpec | None = None) -> int:
    """Smallest n >= 1 with theta(label^n) = 0 and trivial braiding vector."""
    lab = check_deconfined(model, label)
    gens = generating_labels(model)
    cap = lcm(*model.lattice.edge_dims)
    for n in range(1, cap + 1):
        if _is_trivial(model, n * lab, gens, junction):
            return n
    raise ConfinedLabelError(f"no fusion order below {cap + 1} for {lab}")


# ---------------------------------------------------------------------------
# Theory extraction
# ---------------------------------------------------------------------------


def _combine(gen_labels: tuple[AnyonLabel, ...], vec) -> AnyonLabel:
    """The label with exponent vector `vec` over the generator labels."""
    n_layers = len(gen_labels[0].flux)
    lab = AnyonLabel((0,) * n_layers, (0,) * n_layers)
    for k, g in zip(vec, gen_labels):
        lab = lab.combine(k * g)
    return lab


@dataclass(frozen=True)
class ExtractedTheory:
    """Measured statistics tables over the group generated by the labels.

    theta and braiding are keyed by exponent vectors over the generators;
    theory is the quotient by the measured trivial (transparent) vectors.
    """

    generator_names: tuple[str, ...]
    generator_labels: tuple[AnyonLabel, ...]
    fusion_orders: tuple[int, ...]
    theta: dict[tuple[int, ...], Rational01]
    braiding: dict[tuple[tuple[int, ...], tuple[int, ...]], Rational01]
    theory: anyon.AnyonTheory

    def combine(self, vec) -> AnyonLabel:
        return _combine(self.generator_labels, vec)

    def box(self) -> list[tuple[int, ...]]:
        return [tuple(v) for v in
                iproduct(*(range(o) for o in self.fusion_orders))]


def extract_theory(model: LatticeModel, labels=None,
                   junction: JunctionSpec | None = None) -> ExtractedTheory:
    """Measure theta/B tables over the labels and assemble the quotient
    theory; verifies B(a, a') = theta(a a') - theta(a) - theta(a')."""
    if labels is None:
        labels = generating_labels(model)
    elif not isinstance(labels, dict):
        labels = {str(name): model.label(name) for name in labels}
    names = tuple(labels)
    gen_labels = tuple(check_deconfined(model, labels[n]) for n in names)
    gens = dict(zip(names, gen_labels))
    orders = tuple(fusion_order(model, g, junction) for g in gen_labels)

    # theta is a function of the exponent vector alone, so it is measured
    # once per distinct vector; braiding is measured for every pair.
    label_of: dict[tuple[int, ...], AnyonLabel] = {}
    theta_of: dict[tuple[int, ...], Rational01] = {}

    def combine(vec) -> AnyonLabel:
        vec = tuple(vec)
        if vec not in label_of:
            label_of[vec] = _combine(gen_labels, vec)
        return label_of[vec]

    def q_fn(vec) -> Rational01:
        vec = tuple(vec)
        if vec not in theta_of:
            theta_of[vec] = t_junction_theta(model, combine(vec), junction,
                                             check=False)
        return theta_of[vec]

    def b_fn(v1, v2) -> Rational01:
        return crossing_braiding(model, combine(v1), combine(v2), check=False)

    box = [tuple(v) for v in iproduct(*(range(o) for o in orders))]
    theta = {vec: q_fn(vec) for vec in box}
    braiding = {(v1, v2): b_fn(v1, v2) for v1 in box for v2 in box}

    # Internal consistency: braiding must equal the theta ratio.
    for v1 in box:
        for v2 in box:
            s = tuple(a + b for a, b in zip(v1, v2))
            ratio = q_fn(s) - theta[v1] - theta[v2]
            if braiding[(v1, v2)] != ratio:
                raise InconsistentExtractionError(
                    f"B{v1, v2} != theta-ratio: {braiding[(v1, v2)]} vs "
                    f"{ratio}")

    # Quotient by the measured transparent vectors.
    k = len(names)
    columns = [[orders[i] if r == i else 0 for r in range(k)]
               for i in range(k)]
    for vec in box:
        if any(vec) and theta[vec].is_zero() and all(
                braiding[(vec, g)].is_zero()
                for g in (tuple(1 if t == i else 0 for t in range(k))
                          for i in range(k))):
            columns.append(list(vec))
    relations = IntMatrix([[col[r] for col in columns] for r in range(k)],
                          rows=k, cols=len(columns))
    presented = anyon.theory_from_presentation(k, q_fn, b_fn, relations)
    return ExtractedTheory(names, gen_labels, orders, theta, braiding,
                           presented.theory)


def extraction_report(model: LatticeModel, labels=None,
                      target: anyon.AnyonTheory | None = None,
                      target_name: str = "") -> dict:
    """JSON-ready report; iso_match compares against the target theory."""
    ext = extract_theory(model, labels)
    if target is None and model.kind in ("tc", "ds", "tqd"):
        if model.kind == "tc":
            target = anyon.zn_tc_theory(model.tc_N)
            target_name = target_name or f"Z{model.tc_N} toric code"
        else:
            target = anyon.tqd_theory(model.params.N, model.params.n,
                                      model.params.nij)
            target_name = target_name or (
                f"twisted double N={list(model.params.N)} "
                f"n={list(model.params.n)}")
    box = ext.box()
    report = {
        "generators": list(ext.generator_names),
        "fusion_orders": {name: order for name, order in
                          zip(ext.generator_names, ext.fusion_orders)},
        "theta": {",".join(map(str, vec)): str(ext.theta[vec])
                  for vec in box},
        "braiding": [[str(ext.braiding[(v1, v2)]) for v2 in box]
                     for v1 in box],
        "iso_match": (anyon.theories_isomorphic(ext.theory, target)
                      if target is not None else None),
        "target": target_name,
    }
    return report


# ---------------------------------------------------------------------------
# Logical algebra on the torus
# ---------------------------------------------------------------------------


_GROUP_CACHE: dict = {}


def model_group(model: LatticeModel) -> StabilizerGroup:
    """Rebuild the stabilizer group of a lattice model (cached)."""
    torus = model.lattice
    key = (model.kind, torus, model.params, model.tc_N)
    if key in _GROUP_CACHE:
        return _GROUP_CACHE[key]
    group = _build_group(model)
    _GROUP_CACHE[key] = group
    return group


def _build_group(model: LatticeModel) -> StabilizerGroup:
    torus = model.lattice
    if model.kind == "tc":
        return lat.build_zn_tc(model.tc_N, torus.Lx, torus.Ly)[0]
    if model.kind == "ds":
        return lat.build_ds(torus.Lx, torus.Ly)[0]
    if model.kind == "tqd":
        return lat.build_tqd(model.params, torus.Lx, torus.Ly)[0]
    if model.kind == "spt":
        return lat.build_spt(torus.Lx, torus.Ly)[0]
    raise ValueError(f"unknown model kind {model.kind!r}")


def logical_labels(model: LatticeModel) -> list[tuple[str, str]]:
    """(X-bar label, Z-bar label) per logical pair."""
    if model.kind == "tc":
        return [("m", "e"), ("m", "e")]
    if model.kind == "ds":
        return [("s", "s"), ("sbar", "sbar")]
    if model.kind == "tqd":
        return [(f"phi{i + 1}", f"phi{i + 1}")
                for i in range(model.params.M)]
    raise ValueError(f"no logical strings for model kind {model.kind!r}")


def logical_algebra(model: LatticeModel,
                    group: StabilizerGroup | None = None) -> dict:
    """Noncontractible-string logical operators and their exact algebra.

    Pair i is (X-bar_i, Z-bar_i); for the toric code the second pair uses the
    swapped cycle directions. Reports the pairwise commutation phases and,
    for each operator, the smallest power that is a stabilizer member.
    """
    if group is None:
        group = model_group(model)
    ops: list[tuple[str, PauliOperator]] = []
    pairs = logical_labels(model)
    for i, (xname, zname) in enumerate(pairs):
        xdir, zdir = "horizontal", "vertical"
        if model.kind == "tc" and i == 1:
            xdir, zdir = "vertical", "horizontal"
        ops.append((f"X{i + 1}", _noncontractible(
            model, check_deconfined(model, xname), xdir)))
        ops.append((f"Z{i + 1}", _noncontractible(
            model, check_deconfined(model, zname), zdir)))
    commutation = {
        na: {nb: str(commutation_phase(pa, pb)) for nb, pb in ops}
        for na, pa in ops}
    orders = {}
    members = {}
    cap = lcm(*model.lattice.edge_dims)
    for name, op in ops:
        acc = identity(group.system)
        for n in range(1, cap + 1):
            acc = multiply(acc, op)
            res = member_with_phase(group, acc)
            if res.verdict != "NotMember":
                orders[name] = n
                members[name] = res.verdict
                break
        else:
            orders[name] = None
            members[name] = "NotMember"
    return {"operators": [name for name, _ in ops],
            "commutation": commutation,
            "orders": orders,
            "power_membership": members}


# ---------------------------------------------------------------------------
# SPT boundary cocycle
# ---------------------------------------------------------------------------


def _restrict(P: PauliOperator, sites) -> PauliOperator:
    keep = set(sites)
    return PauliOperator(P.system,
                         x={s: v for s, v in P.x.items() if s in keep},
                         z={s: v for s, v in P.z.items() if s in keep})


def _site_coords(torus) -> dict[int, tuple[str, int, int]]:
    coords = {}
    for y in range(torus.Ly):
        for x in range(torus.Lx):
            for layer in range(len(torus.edge_dims)):
                coords[torus.edge_site(x, y, lat.H, layer)] = ("H", x, y)
                coords[torus.edge_site(x, y, lat.V, layer)] = ("V", x, y)
            for layer in range(len(torus.vertex_dims)):
                coords[torus.vertex_site(x, y, layer)] = ("vertex", x, y)
    return coords


def _partial_member(group: StabilizerGroup, gen_indices, target,
                    row_sites) -> PauliOperator | None:
    """A product of the selected generators matching `target` on `row_sites`.

    Returns the matching product (phase included), or None if no combination
    agrees with `target` on every listed site.
    """
    lifted = [group._lifted(g) for g in
              (group.generators[i] for i in gen_indices)]
    target_lift = group._lifted(target)
    D = group.system.D
    n = group.system.n_sites
    rows = []
    rhs = []
    for s in row_sites:
        for part in (s, n + s):
            rows.append([vec[part] for vec in lifted])
            rhs.append(target_lift[part])
    solver = ModSolver(IntMatrix(rows, rows=len(rows), cols=len(lifted)),
                       [D] * len(rows))
    coeffs = solver.solve(rhs)
    if coeffs is None:
        return None
    return product(
        [power(group.generators[i], c) for c, i in zip(coeffs, gen_indices)],
        system=group.system)


def spt_cocycle(model: LatticeModel, ell: int,
                group: StabilizerGroup | None = None) -> dict:
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
    if group is None:
        group = model_group(model)
    system = group.system
    coords = _site_coords(torus)
    # A vertex term at row y touches rows y-1 .. y+1, so a region of rows
    # 0 .. y_cut-1 contains the terms with 1 <= y <= y_cut-2.
    y_cut = 3

    def in_region(site: int) -> bool:
        return coords[site][2] < y_cut

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
    window = {s for s, (_, x, y) in coords.items()
              if y in boundary_rows and x0 <= x < x0 + ell}
    p_ell = _restrict(script_p, window)
    p_ell = PauliOperator(system, x=p_ell.x, z=p_ell.z)  # drop the phase

    # Omega(1,1) from the square, reduced to the endpoints modulo
    # R-supported stabilizers.
    omega_raw = multiply(p_ell, p_ell)
    left_zone = {s for s in range(system.n_sites)
                 if coords[s][2] in boundary_rows
                 and (coords[s][1] - (x0 - 1)) % torus.Lx <= 1}
    right_zone = {s for s in range(system.n_sites)
                  if coords[s][2] in boundary_rows
                  and (coords[s][1] - (x0 + ell - 2)) % torus.Lx <= 2}
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
        system, [group.generators[i] for i in r_gen_indices], validate=False)

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
