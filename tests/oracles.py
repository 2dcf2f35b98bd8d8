"""Reference implementations that the library's fast paths are checked
against. Nothing under src/ imports this module. The dense oracles import
numpy when called; the library itself needs neither numpy nor floats."""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm, prod
from typing import Sequence

from tqdstab import anyon, extraction
from tqdstab.exactmath import (IntMatrix, ModSolver, Rational01, _Lanes,
                                _unit_for, _xgcd, unpack_row)
from tqdstab.lattice import H, LatticeModel, V
from tqdstab.pauli import (PauliOperator, adjoint, commutation_exponent,
                           commutation_phase, commutation_total, identity,
                           multiply, power, product, product_of_powers,
                           scalar)
from tqdstab.stabilizer import (MembershipResult, SolverCheckError,
                                StabilizerGroup, group_order,
                                member_with_phase)


def commutes(P: PauliOperator, Q: PauliOperator) -> bool:
    return not commutation_exponent(P, Q)


def commutation_pairs_by_all_pairs(gens: Sequence[PauliOperator]
                                   ) -> tuple[list[tuple[int, int]], array]:
    """`stabilizer.assert_commuting`'s (bad, odd) by commutation_total over
    every pair i < j in lexicographic order: the non-commuting pairs, and
    the commuting pairs whose total is an odd multiple of D, flattened."""
    bad, odd = [], array("I")
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            total = commutation_total(g, gens[j]) % (2 * g.system.D)
            if total % g.system.D:
                bad.append((i, j))
            elif total:
                odd.extend((i, j))
    return bad, odd


def scan_unit_for(a: int, N: int) -> int:
    """The smallest unit u in [1, N] with u*a = gcd(a, N) (mod N), by
    scanning every u: `exactmath._unit_for` before it walked only the
    gcd(a, N) candidates."""
    a %= N
    d = gcd(a, N)
    for u in range(1, N + 1):
        if gcd(u, N) == 1 and (u * a) % N == d % N:
            return u
    raise ArithmeticError(f"no unit found for {a} mod {N}")


def dense_howell_form(rows: Sequence[Sequence[int]],
                      big: int) -> tuple[list[list[int]],
                                         list[tuple[int, int, int]]]:
    """Howell form of the Z_big row span of `rows` with dense rows.

    At each column every pending row is scanned, and each xgcd step
    rewrites two full-width rows. Same pivots, pivot order and arithmetic
    as `exactmath.howell_form`; its rows are the dense copies of that
    function's sparse rows.
    """
    width = len(rows[0]) if rows else 0
    todo = [r for r in ([x % big for x in row] for row in rows) if any(r)]
    H: list[list[int]] = []
    pivots: list[tuple[int, int, int]] = []
    for col in range(width):
        here = [r for r in todo if r[col]]
        rest = [r for r in todo if not r[col]]
        if not here:
            todo = rest
            continue
        piv = here[0]
        for r in here[1:]:
            a, b = piv[col], r[col]
            g, s, t = _xgcd(a, b)
            newp = [(s * x + t * y) % big for x, y in zip(piv, r)]
            newr = [((b // g) * x - (a // g) * y) % big
                    for x, y in zip(piv, r)]
            piv = newp
            if any(newr):
                rest.append(newr)
        u = _unit_for(piv[col], big)
        piv = [(u * x) % big for x in piv]
        d = piv[col]
        H.append(piv)
        pivots.append((len(H) - 1, col, d))
        # Howell closure: the annihilator (big/d) * piv re-enters the queue.
        ann = [((big // d) * x) % big for x in piv]
        ann[col] = 0
        if any(ann):
            rest.append(ann)
        todo = rest
    return H, pivots


def lifted(group, P: PauliOperator) -> list[int]:
    """P's exponents lifted into Z_D as one dense 2n-entry vector, x parts
    then z parts: the list `StabilizerGroup` built for its solver and its
    targets before it packed them straight from the sparse maps."""
    D, dims = group.system.D, group.system.dims
    n = len(dims)
    vec = [0] * (2 * n)
    for q, e in P.x.items():
        vec[q] = e * (D // dims[q])
    for q, e in P.z.items():
        vec[n + q] = e * (D // dims[q])
    return vec


def columns_of(lanes: _Lanes, vectors: Sequence[Sequence[int]],
               n: int) -> list[int]:
    """The n columns of `vectors` (rows of n integers, read mod lanes.big),
    packed in `lanes` one column at a time: lane r of column j is entry j
    of vectors[r]. `_Lanes.columns_of` before `_Lanes.transpose` read the
    columns off the packed rows."""
    return list(map(lanes.pack, zip(*vectors))) if vectors else [0] * n


def pending_vectors(solver: ModSolver) -> list[list[int]]:
    """The solver's kernel rows unpacked one by one into dense vectors
    (`ModSolver._pending_vectors`)."""
    return [unpack_row(row, solver.big, solver._n)
            for row in solver.kernel_rows()]


def kernel_generators(solver: ModSolver) -> list[list[int]]:
    """The solver's kernel rows as dense vectors, then big * e_i for each
    column i: generators of the lattice {x in Z^cols : sum x_j columns[j]
    = 0 mod moduli}, not reduced among themselves. The dense view
    `ModSolver.kernel_generators` gave before the stabilizer module read
    the packed rows."""
    n = solver._n
    return pending_vectors(solver) + [
        [solver.big if j == i else 0 for j in range(n)] for i in range(n)]


def solve_by_dense_rows(solver: ModSolver,
                        b: Sequence[int]) -> list[int] | None:
    """`ModSolver.solve` on dense lists: the lifted target, a full list of
    m + n entries, is reduced against each pivot row unpacked, entry by
    entry, and the answer is its negated identity part, one entry at a
    time. The route before targets and answers stayed packed."""
    big, m, n = solver.big, solver._m, solver._n
    w = [(big // mod) * int(v) % big
         for mod, v in zip(solver.moduli, b)] + [0] * n
    pivot_at = {col: (unpack_row(solver._H[idx], big, m + n), d)
                for idx, col, d in solver._pivots}
    for col in range(m):
        if not w[col]:
            continue
        if col not in pivot_at:
            return None
        row, d = pivot_at[col]
        q, r = divmod(w[col], d)
        if r:
            return None
        w = [(x - q * y) % big for x, y in zip(w, row)]
    return [-x % big for x in w[m:]]


def combination_phases(group, vectors: Sequence[Sequence[int]],
                       targets: Sequence[PauliOperator]) -> list[int]:
    """`StabilizerGroup._combination_phases` on dense coefficient vectors
    (any integers), packed column by column (columns_of)."""
    lanes = _Lanes(2 * group.system.D)
    return group._combination_phases(
        columns_of(lanes, vectors, len(group.generators)), len(vectors),
        targets)


def kernel_table(group) -> list[tuple[list[int], int]]:
    """The group's kernel phases paired with their vectors, each read off
    its packed row (`_kernel_vector`): the shape kernel_phases_by_products
    returns."""
    return [(group._kernel_vector(i), phase)
            for i, phase in enumerate(group._get_kernel_phases())]


def walk_least_solution(columns, b, moduli):
    """Lexicographically smallest solution by walking every element of
    sol + span(kernel) mod lcm(moduli), starting from ModSolver.solve and
    stepping by its unreduced kernel generators; None if there is none."""
    big = lcm(*moduli)
    solver = ModSolver(columns, moduli)
    sol = solver.solve(b)
    if sol is None:
        return None
    solutions = {tuple(s % big for s in sol)}
    frontier = list(solutions)
    shifts = {tuple(s % big for s in vec)
              for vec in kernel_generators(solver)}
    shifts.discard((0,) * len(columns))
    while frontier:
        base = frontier.pop()
        for shift in shifts:
            nxt = tuple((u + v) % big for u, v in zip(base, shift))
            if nxt not in solutions:
                solutions.add(nxt)
                frontier.append(nxt)
    return list(min(solutions))


def phase_fix_system(group, model):
    """The system the vertex-term phases solve, from a built group with its
    model's phase_fix taken off again: one equation per kernel generator of
    that unfixed group, sum_i m_i s_i = -phi mod 2D, where phi is the
    generator's scalar phase and s_i its coefficient sum over layer i's
    vertex terms (the first M * n_cells generators, layer-major), read off
    the dense vectors of `_kernel_vector`. Returns (columns, rhs, moduli)
    in ModSolver's form, one column per layer: the builders' solve before
    they wrote each layer's phase as the spin of its flux."""
    system, per_layer = group.system, model.lattice.n_cells
    two_d = 2 * system.D
    gens = list(group.generators)
    for i, m in enumerate(model.phase_fix):
        for k in range(i * per_layer, (i + 1) * per_layer):
            gens[k] = multiply(scalar(system, -m), gens[k])
    unfixed = StabilizerGroup(system, gens)
    phases = unfixed._get_kernel_phases()
    vectors = [unfixed._kernel_vector(r) for r in range(len(phases))]
    columns = [[sum(vec[i * per_layer:(i + 1) * per_layer]) % two_d
                for vec in vectors] for i in range(len(model.phase_fix))]
    return columns, [-phi % two_d for phi in phases], [two_d] * len(phases)


def transposed_solver_rows(group) -> list[list[int]]:
    """The [M | I] Howell input rows of a stabilizer group's solver, built
    entry by entry through the 2n x k lifted generator matrix A: A[i][j] is
    entry i of generator j's lifted vector, and row j is column j of A,
    each entry times big / D = 1, then the unit vector e_j."""
    cols = [lifted(group, g) for g in group.generators]
    m, n = 2 * group.system.n_sites, len(cols)
    A = [[cols[j][i] for j in range(n)] for i in range(m)]
    rows = [[A[i][j] for i in range(m)] + [1 if k == j else 0
                                           for k in range(n)]
            for j in range(n)]
    return rows


def kernel_phases_by_products(group) -> list[tuple[list[int], int]]:
    """(vector, phase) for each of the solver's kernel_generators, by
    multiplying out the combination: one product_of_powers over the
    nonzero entries of each pending row, one power for each big * e_i.
    The route `StabilizerGroup._get_kernel_phases` took before its closed
    form."""
    solver = group._get_solver()
    vectors = kernel_generators(solver)
    gens = group.generators
    n_rows = len(vectors) - len(gens)
    ops = [product_of_powers(group.system,
                             [(gens[i], a) for i, a in enumerate(vec) if a])
           for vec in vectors[:n_rows]]
    ops.extend(power(g, solver.big) for g in gens)
    table = []
    for vec, op in zip(vectors, ops):
        if not op.is_scalar():
            raise SolverCheckError("kernel combination is not scalar")
        table.append((vec, op.phase))
    return table


def member_with_phase_by_products(S: StabilizerGroup,
                                  P: PauliOperator) -> MembershipResult:
    """`stabilizer.member_with_phase` by multiplying out the combination
    the solver gives (and the folded one) in generator order, with the
    kernel table of kernel_phases_by_products: the route it took before
    its closed form. The target is solved on dense lists
    (solve_by_dense_rows)."""
    coeffs = solve_by_dense_rows(S._get_solver(), lifted(S, P))
    if coeffs is None:
        return MembershipResult((), Rational01(0), "NotMember")
    combo = S.combination(coeffs)
    if combo.x != P.x or combo.z != P.z:
        raise SolverCheckError("exponent solve mismatch")
    two_d = 2 * S.system.D
    delta = (P.phase - combo.phase) % two_d
    if delta == 0:
        return MembershipResult(tuple(coeffs), Rational01(0), "Member")
    table = kernel_phases_by_products(S)
    phases = [phase for _, phase in table]
    if delta % gcd(two_d, *phases) == 0:
        fix = ModSolver([[p] for p in phases], [two_d]).solve([delta])
        for f, (vec, _) in zip(fix, table):
            if f:
                coeffs = [c + f * a for c, a in zip(coeffs, vec)]
        if S.combination(coeffs) != P:
            raise SolverCheckError("phase-corrected combination mismatch")
        return MembershipResult(tuple(coeffs), Rational01(0), "Member")
    return MembershipResult(tuple(coeffs), Rational01(delta, two_d),
                            "MemberUpToPhase")


def groups_equal_by_members(S1: StabilizerGroup, S2: StabilizerGroup) -> bool:
    """<S1> == <S2> by exact membership of every generator of each group in
    the other (member_with_phase_by_products), both directions."""
    return (all(member_with_phase_by_products(S2, g).is_member
                for g in S1.generators)
            and all(member_with_phase_by_products(S1, g).is_member
                    for g in S2.generators))


def junction_exponent_by_products(w1, w2, w3) -> int:
    """t in Z_{2D} with W1 W2^dag W3 = e^{2 pi i t / 2D} W3 W2^dag W1, read
    off by forming both products and comparing their phases."""
    lhs = product([w1, adjoint(w2), w3])
    rhs = product([w3, adjoint(w2), w1])
    if lhs.x != rhs.x or lhs.z != rhs.z:
        raise ValueError("operators differ by more than a phase")
    return (lhs.phase - rhs.phase) % (2 * w1.system.D)


def string_operator_by_segments(model, label, path,
                                bound: bool = True) -> PauliOperator:
    """`lattice.string_operator` as an ordered product of checked one-step
    segments: each E or N step is its own `PauliOperator`, a W or S step is
    the `adjoint` of the E or N segment from the cell west or south, and
    `product` multiplies them in path order. With ``bound=False`` all
    charge hops on the near edge (the edge terms' placement). Checks the
    path and its kind first and uses no memo."""
    lab = model.label(label)
    lat = model.lattice
    points = path.points(lat)
    if path.closed and points[0] != points[-1]:
        raise ValueError("closed path must return to its start")
    if lab.path_kind != path.kind:
        raise ValueError(
            f"label needs a {lab.path_kind} path, got {path.kind}")
    rider = model._bound_charge(lab.flux) if bound \
        else (0,) * model.n_layers

    def east_or_north(x, y, move):
        xmap, zmap = {}, {}
        for layer in range(model.n_layers):
            f, r = lab.flux[layer], rider[layer]
            c = lab.charge[layer] - r
            if move == "E":
                xsite, xexp = lat.edge_site(x + 1, y, V, layer), f
                near = lat.edge_site(x, y, H, layer)
                far = lat.edge_site(x + 1, y + 1, H, layer)
            else:
                xsite, xexp = lat.edge_site(x, y + 1, H, layer), -f
                near = lat.edge_site(x, y, V, layer)
                far = lat.edge_site(x + 1, y + 1, V, layer)
            if xexp:
                xmap[xsite] = xexp
            if c:
                zmap[near] = c
            if r:
                zmap[far] = r
        return PauliOperator(model.system, x=xmap, z=zmap)

    segments = []
    for (x, y), move in zip(path.points(lat), path.moves):
        if move == "W":
            segments.append(adjoint(east_or_north(x - 1, y, "E")))
        elif move == "S":
            segments.append(adjoint(east_or_north(x, y - 1, "N")))
        else:
            segments.append(east_or_north(x, y, move))
    return product(segments, system=model.system)


def fusion_order_by_multiples(probe, lab, partners) -> int:
    """Smallest n >= 1 with theta(n lab) = 0 and trivial braiding of n lab
    with every partner, each measured on the walked strings of n lab."""
    cap = lcm(*probe.model.lattice.edge_dims)
    for n in range(1, cap + 1):
        multiple = n * lab
        if not probe.theta(multiple) and not any(
                probe.braid(multiple, g) for g in partners):
            return n
    raise extraction.ConfinedLabelError(
        f"no fusion order below {cap + 1} for {lab}")


def extraction_tables_by_box_walk(model, junction=None):
    """`extraction.extract_theory` by walking strings on the whole box:
    fusion orders from the strings of each generator's multiples, theta
    from a T-junction on every box vector and on every v + e_g leaving the
    box, both loops of every box vector certified against the product of
    the generator loops, and the theta ratio
    2 b(v, e_g) = theta(v + e_g) - theta(v) - theta(e_g) checked on every
    (v, g) with b(v, e_g) = (v B)_g from the k x k crossings B. Returns an
    `ExtractedTheory` with the same fields."""
    labels = extraction.generating_labels(model)
    names = tuple(labels)
    probe = extraction._Probe(model, junction)
    gen_labels = tuple(probe.deconfined(*labels.values()))
    orders = tuple(fusion_order_by_multiples(probe, g, gen_labels)
                   for g in gen_labels)
    thetas: dict = {}

    def t_of(vec) -> int:
        vec = tuple(vec)
        if vec not in thetas:
            thetas[vec] = probe.theta(extraction._combine(gen_labels, vec))
        return thetas[vec]

    box = list(iproduct(*map(range, orders)))
    theta = {vec: t_of(vec) for vec in box}
    for direction in ("horizontal", "vertical"):
        gen_loops = [probe.loop(g, direction) for g in gen_labels]
        for vec in box:
            combo = product_of_powers(model.system, zip(gen_loops, vec))
            lab = extraction._combine(gen_labels, vec)
            loop = probe.loop(lab, direction)
            if (loop.x, loop.z) != (combo.x, combo.z):
                raise extraction.InconsistentExtractionError(
                    f"the {direction} loop of {vec} is not linear")
    D, k = probe.D, len(names)
    B = [[probe.braid(g, h) for h in gen_labels] for g in gen_labels]
    units = [tuple(int(t == g) for t in range(k)) for g in range(k)]
    rows = {}
    for v in box:
        r = rows[v] = [sum(c * Bg[h] for c, Bg in zip(v, B)) % D
                       for h in range(k)]
        for g, e in enumerate(units):
            w = tuple(a + b for a, b in zip(v, e))
            if (2 * r[g] - t_of(w) + theta[v] + t_of(e)) % (2 * D):
                raise extraction.InconsistentExtractionError(
                    f"B{v, e} != theta ratio")
    columns = [[o * t for t in e] for o, e in zip(orders, units)] + [
        list(v) for v in box if any(v) and not theta[v] and not any(rows[v])]
    relations = IntMatrix([[col[r] for col in columns] for r in range(k)],
                          rows=k, cols=len(columns))
    b_phase = [Rational01(e, D) for e in range(D)]
    t_phase = [Rational01(e, 2 * D) for e in range(2 * D)]
    presented = anyon.theory_from_presentation(
        [t_phase[t_of(e)] for e in units],
        [[b_phase[e] for e in row] for row in B], relations)
    return extraction.ExtractedTheory(
        names, gen_labels, orders,
        {vec: t_phase[e] for vec, e in theta.items()},
        extraction.BoxBraiding(rows, b_phase), presented.theory)


def extraction_tables_by_all_pairs(model, junction=None):
    """`extraction.extract_theory` by measuring every pair: the braiding of
    each pair of box vectors is the commutation exponent of their loops,
    and the theta ratio 2 b(v1, v2) = theta(v1 + v2) - theta(v1) -
    theta(v2) is checked on every pair, with a T-junction on each sum. The
    split theory's q and b are compared with T-junctions and crossings
    measured on the split generators' own loops, which may lie outside
    the box. Fusion orders come from the walked multiples
    (`fusion_order_by_multiples`). Returns an `ExtractedTheory` with the
    same fields."""
    labels = extraction.generating_labels(model)
    names = tuple(labels)
    probe = extraction._Probe(model, junction)
    gen_labels = tuple(probe.deconfined(*(labels[n] for n in names)))
    partners = tuple(labels.values())
    orders = tuple(fusion_order_by_multiples(probe, g, partners)
                   for g in gen_labels)

    label_of: dict = {}

    def label(vec):
        vec = tuple(vec)
        lab = label_of.get(vec)
        if lab is None:
            lab = label_of[vec] = extraction._combine(gen_labels, vec)
        return lab

    thetas: dict = {}

    def t_of(vec) -> int:
        lab = label(vec)
        if lab not in thetas:
            thetas[lab] = probe.theta(lab)
        return thetas[lab]

    box = list(iproduct(*map(range, orders)))
    theta = {vec: t_of(vec) for vec in box}
    horizontal = [probe.loop(label(v), "horizontal") for v in box]
    vertical = [probe.loop(label(v), "vertical") for v in box]
    braiding = {(v1, v2): extraction._braid_exponent(w1, w2)
                for v1, w1 in zip(box, horizontal)
                for v2, w2 in zip(box, vertical)}
    D = probe.D
    for (v1, v2), e in braiding.items():
        ratio = (t_of(tuple(x + y for x, y in zip(v1, v2)))
                 - theta[v1] - theta[v2])
        if (2 * e - ratio) % (2 * D):
            raise extraction.InconsistentExtractionError(
                f"B{v1, v2} != theta-ratio")

    k = len(names)
    units = [tuple(int(t == i) for t in range(k)) for i in range(k)]
    columns = [[orders[i] if r == i else 0 for r in range(k)]
               for i in range(k)]
    for vec in box:
        if any(vec) and not theta[vec] and not any(
                braiding[(vec, g)] for g in units):
            columns.append(list(vec))
    relations = IntMatrix([[col[r] for col in columns] for r in range(k)],
                          rows=k, cols=len(columns))
    b_phase = [Rational01(e, D) for e in range(D)]
    t_phase = [Rational01(e, 2 * D) for e in range(2 * D)]
    presented = anyon.theory_from_presentation(
        [t_phase[t_of(e)] for e in units],
        [[b_phase[probe.braid(label(e), label(f))] for f in units]
         for e in units], relations)
    # the split generators' statistics, measured on their own loops
    words = presented.gen_exprs
    if list(presented.theory.q_gen) != [t_phase[t_of(w)] for w in words] or \
            [list(row) for row in presented.theory.b_gen] != [
                [b_phase[probe.braid(label(w1), label(w2))] for w2 in words]
                for w1 in words]:
        raise extraction.InconsistentExtractionError(
            "split generator statistics differ from their loops")
    return extraction.ExtractedTheory(
        names, gen_labels, orders,
        {vec: t_phase[e] for vec, e in theta.items()},
        {pair: b_phase[e] for pair, e in braiding.items()},
        presented.theory)


# ---------------------------------------------------------------------------
# Torus logical algebra (test-only: no library route reads it)
# ---------------------------------------------------------------------------


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


def logical_algebra(model: LatticeModel) -> dict:
    """Noncontractible-string logical operators and their exact algebra.

    Pair i is (X-bar_i, Z-bar_i); for the toric code the second pair uses the
    swapped cycle directions. Reports the pairwise commutation phases and,
    for each operator, the smallest power that is a stabilizer member.
    """
    group = extraction.model_group(model)
    probe = extraction._Probe(model)
    ops: list[tuple[str, PauliOperator]] = []
    pairs = logical_labels(model)
    for i, (xname, zname) in enumerate(pairs):
        xdir, zdir = "horizontal", "vertical"
        if model.kind == "tc" and i == 1:
            xdir, zdir = "vertical", "horizontal"
        xlab, zlab = probe.deconfined(xname, zname)
        ops.append((f"X{i + 1}", probe.loop(xlab, xdir)))
        ops.append((f"Z{i + 1}", probe.loop(zlab, zdir)))
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


def qpp_dense(op, sites: Sequence):
    """Dense matrix of a circuitmap.QuadraticPhaseOperator over the listed
    qubit sites."""
    import numpy as np
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    root = np.exp(1j * np.pi / 4)
    lam = op.lam_dict
    for col in range(dim):
        bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        exp_i = sum(lam.get(s, 0) * bits[pos[s]] for s in lam if s in pos)
        val = (root ** op.phase) * (1j ** exp_i)
        row_bits = list(bits)
        for s in op.x:
            row_bits[pos[s]] ^= 1
        row = 0
        for bit in row_bits:
            row = (row << 1) | bit
        mat[row, col] = val
    return mat


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
    expected = max(1, total // group_order(group))
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


def _laplace_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _laplace_det([r[:j] + r[j + 1:]
                                             for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def census_by_box(K: Sequence[Sequence[int]]) -> dict[str, int]:
    """Histogram of q(l) = l^T adj(K) l / (2 det K) mod 1 over the anyons
    Z^k / K Z^k of an even K, with no Smith form.

    With d = det K, A = adj K (by cofactors) and e = |d| / gcd(|d|, A),
    e K^{-1} = e A / d is integral, so e Z^k lies in K Z^k and the box
    Z_e^k maps onto the |d| cosets, each hit e^k / |d| times.
    """
    K = [list(r) for r in K]
    k = len(K)
    d = _laplace_det(K)
    A = [[(-1) ** (i + j) * _laplace_det(
        [r[:i] + r[i + 1:] for t, r in enumerate(K) if t != j])
        for j in range(k)] for i in range(k)]
    e = abs(d) // gcd(abs(d), *(x for r in A for x in r))
    sign, two_d = (1 if d > 0 else -1), 2 * abs(d)
    counts: dict[int, int] = {}
    for l in iproduct(range(e), repeat=k):
        lAl = sum(x * sum(a * y for a, y in zip(r, l)) for x, r in zip(l, A))
        num = sign * lAl % two_d
        counts[num] = counts.get(num, 0) + 1
    per_coset = e ** k // abs(d)
    out: dict[str, int] = {}
    for num, c in counts.items():
        q = Fraction(num, two_d)
        out[f"{q.numerator}/{q.denominator}"] = c // per_coset
    return out


def exhaustive_theory_problems(orders, q_gen, b_gen) -> list[str]:
    """The quadratic-form axioms checked on every anyon and every pair of
    prod_i Z_{orders[i]}, from raw generator tables (symmetric b with
    b_ii = 2 q_i): q(n a) = n^2 q(a) for n up to the order of a, and
    polarization b(a, c) = q(a + c) - q(a) - q(c), with sums reduced in the
    group. `anyon.AnyonTheory` checks the generator conditions instead, when
    it is made."""
    def q(a):
        return anyon.quadratic_form(q_gen, b_gen, a)

    def reduce(a):
        return tuple(x % o for x, o in zip(a, orders))

    problems = []
    elems = list(iproduct(*(range(o) for o in orders)))
    for a in elems:
        qa = q(a)
        order = lcm(*(o // gcd(x, o) for x, o in zip(a, orders)))
        for n in range(order + 1):
            if q(reduce([n * x for x in a])) != qa * (n * n):
                problems.append(f"q({n}*{a}) != {n}^2 q({a})")
                break
    for a in elems:
        for c in elems:
            if anyon.bilinear_form(b_gen, a, c) != (
                    q(reduce([x + y for x, y in zip(a, c)])) - q(a) - q(c)):
                problems.append(f"b({a},{c}) fails polarization")
    return problems


def is_modular_by_enumeration(theory) -> bool:
    """`anyon.is_modular` by enumeration, as it was before it read the
    pairing kernel: every nontrivial anyon must braid nontrivially with
    some generator."""
    gens = theory.generators()
    for a in theory.elements():
        if not any(a):
            continue
        if all(theory.b(a, g).is_zero() for g in gens):
            return False
    return True


def condensed_census_by_scan(theory, bosons) -> tuple[int, dict[str, int]]:
    """Size and q census of the theory left by condensing `bosons`, by
    scanning every parent anyon, as `anyon.condense` did before it read the
    deconfined subgroup off a kernel. The deconfined anyons braid trivially
    with each boson; each class is a coset of the boson subgroup B, on
    which q is constant, so each q count divided by |B| counts classes."""
    deconfined = [a for a in theory.elements()
                  if all(theory.b(a, b).is_zero() for b in bosons)]
    per_class = len(theory.subgroup(bosons))
    counts: dict[str, int] = {}
    for a in deconfined:
        key = str(theory.q(a))
        counts[key] = counts.get(key, 0) + 1
    return (len(deconfined) // per_class,
            {key: c // per_class for key, c in counts.items()})


def fusion_group_by_census(N: Sequence[int], n: Sequence[int],
                           nij: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors of the central extension of G = prod Z_{N_i} by G*
    twisted by the 2-cocycle lambda, with no Smith form: every one of the
    |G|^2 elements (flux, charge) is enumerated and multiplied through the
    twisted product, and the invariant factors are rebuilt from the census
    of element orders. `anyon.fusion_group_from_cocycle` walked each
    element's powers one by one before it read a presentation; here all
    elements move at once (numpy), and the p-part of each order is found by
    raising the elements' |G|^2 / p^v-th powers to p-th powers until they
    vanish. `nij` is the full symmetric table, lambda_i = 2 n_i carry_i +
    sum_{j != i} n_ij carry_j (mod N_i)."""
    import numpy as np

    # entries stay below 2 N_i + sum_j lambda coefficients: int16 is ample
    # for every extension small enough to enumerate
    M = len(N)
    Ns = np.array(N, dtype=np.int16)
    twist = np.array([[2 * n[i] if j == i else nij[i][j] for i in range(M)]
                      for j in range(M)], dtype=np.int16)
    sectors = np.array(list(iproduct(*(range(v) for v in N))),
                       dtype=np.int16).reshape(-1, M)
    size = len(sectors) ** 2
    elems = (np.repeat(sectors, len(sectors), axis=0),
             np.tile(sectors, (len(sectors), 1)))

    def mul(a, b):
        flux = a[0] + b[0]
        carry = flux >= Ns
        lam = sum(carry[:, j:j + 1] * twist[j] for j in range(M))
        return flux - carry * Ns, (a[1] + b[1] + lam) % Ns

    def power(a, e):
        out = None
        while e:
            if e & 1:
                out = a if out is None else mul(out, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return out

    def live(a):
        return a[0].any(1) | a[1].any(1)

    order = np.ones(size, dtype=np.int64)
    rest, p = size, 1
    while rest > 1:
        p += 1
        if rest % p:
            continue
        cofactor = size
        while rest % p == 0:
            rest //= p
        while cofactor % p == 0:
            cofactor //= p
        y = power(elems, cofactor)
        moving = live(y)
        while moving.any():
            order[moving] *= p
            y = power(y, p)
            moving = live(y)
    values, counts = np.unique(order, return_counts=True)
    return invariants_from_order_census(
        dict(zip(values.tolist(), counts.tolist())), size)


def invariants_from_order_census(census: dict[int, int],
                                 size: int) -> list[int]:
    """Invariant factors of an abelian group from its element-order census:
    per prime p, m_k = #elements of order dividing p^k, and log_p(m_k /
    m_{k-1}) counts the cyclic p-factors of exponent >= k."""
    primes = set()
    for o in census:
        t, p = o, 2
        while t > 1:
            if t % p == 0:
                primes.add(p)
                while t % p == 0:
                    t //= p
            else:
                p += 1
    per_prime: dict[int, list[int]] = {}
    for p in sorted(primes):
        r: list[int] = []
        prev = sum(c for o, c in census.items() if 1 % o == 0)
        k = 1
        while True:
            cur = sum(c for o, c in census.items() if (p ** k) % o == 0)
            ratio, cnt = cur // prev, 0
            while ratio > 1:
                ratio //= p
                cnt += 1
            if cnt == 0:
                break
            r.append(cnt)
            prev = cur
            k += 1
        exps = []
        for kk in range(len(r), 0, -1):
            exact = r[kk - 1] - (r[kk] if kk < len(r) else 0)
            exps.extend([kk] * exact)
        per_prime[p] = sorted(p ** e for e in exps)  # ascending
    width = max((len(v) for v in per_prime.values()), default=0)
    inv = []
    for idx in range(width):
        f = 1
        for p, v in per_prime.items():
            padded = [1] * (width - len(v)) + v
            f *= padded[idx]
        if f != 1:
            inv.append(f)
    if prod(inv, start=1) != size:
        raise ArithmeticError(f"invariant factors {inv} of the order census "
                              f"do not multiply to the group size {size}")
    return sorted(inv)
