"""Generalized Pauli operators on mixed-dimension qudit systems.

An operator is stored in the normal order

    e^{i*pi*phase/D} * prod_q X_q^{x_q} Z_q^{z_q}

with sites in index order, where D = lcm of the site dimensions, X and Z are
the shift and clock operators (Z X = e^{2*pi*i/d} X Z on a dimension-d site),
and the exponent maps are sparse.

Two constructors build operators. The public ``PauliOperator(...)`` checks
every site, for input from outside the library. The private ``_make`` only
reduces the phase mod 2D and each exponent mod its site's dimension: its
sites must already be valid, so it is used only on results the library
computes from valid operators (``multiply``, ``power``, ``adjoint``,
``product_of_powers``). Commutation is an integer: ``commutation_exponent``
gives e mod D with P Q = e^{2*pi*i*e/D} Q P (the residue of the unreduced
``commutation_total``), and ``commutation_phase`` turns it into a
``Rational01`` where a phase leaves the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Literal, Mapping, Sequence

from .exactmath import Rational01


@dataclass(frozen=True)
class QuditSystem:
    """A finite collection of qudits with per-site dimensions."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("site dimensions must be >= 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_D", lcm(*dims) if dims else 1)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def D(self) -> int:
        """lcm of all site dimensions (phase lattice denominator)."""
        return self._D

    def check_site(self, site: int) -> None:
        if not 0 <= site < len(self.dims):
            raise ValueError(f"invalid site {site}")


class PauliOperator:
    """A phase times a normal-ordered product of X and Z powers."""

    __slots__ = ("system", "phase", "x", "z")

    def __init__(self, system: QuditSystem, phase: int = 0,
                 x: Mapping[int, int] | None = None,
                 z: Mapping[int, int] | None = None):
        for exps in (x, z):
            if exps:
                for site in exps:
                    system.check_site(site)
        self.system = system
        self.phase = phase % (2 * system.D)
        self.x = _reduce_sparse(system.dims, x)
        self.z = _reduce_sparse(system.dims, z)

    # -- equality / hashing --------------------------------------------------

    def _key(self):
        return (self.system.dims, self.phase,
                tuple(sorted(self.x.items())), tuple(sorted(self.z.items())))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PauliOperator) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def is_identity(self) -> bool:
        return self.phase == 0 and not self.x and not self.z

    def is_scalar(self) -> bool:
        return not self.x and not self.z

    @property
    def support(self) -> set[int]:
        return set(self.x) | set(self.z)

    # -- rendering -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<PauliOperator {render(self)}>"


def _reduce_sparse(dims: tuple[int, ...],
                   exps: Mapping[int, int] | None) -> dict[int, int]:
    out: dict[int, int] = {}
    if exps:
        for site, e in exps.items():
            e %= dims[site]
            if e:
                out[site] = e
    return out


def _make(system: QuditSystem, phase: int, x: Mapping[int, int],
          z: Mapping[int, int]) -> PauliOperator:
    """PauliOperator(system, phase, x, z) for sites already known valid.

    Reduces the phase mod 2D and the exponents mod the site dimensions,
    and checks nothing: only for results built from valid operators.
    """
    P = object.__new__(PauliOperator)
    P.system = system
    P.phase = phase % (2 * system.D)
    P.x = _reduce_sparse(system.dims, x)
    P.z = _reduce_sparse(system.dims, z)
    return P


def _check_system(system: QuditSystem, P: PauliOperator) -> None:
    if P.system is not system and P.system.dims != system.dims:
        raise ValueError("system mismatch")


def identity(system: QuditSystem) -> PauliOperator:
    return PauliOperator(system)


def scalar(system: QuditSystem, phase: int) -> PauliOperator:
    """phase is an exponent of e^{i*pi/D}."""
    return PauliOperator(system, phase=phase)


def single(system: QuditSystem, site: int, kind: Literal["X", "Z"],
           exponent: int) -> PauliOperator:
    """Elementary X or Z power with zero phase."""
    system.check_site(site)
    if kind == "X":
        return PauliOperator(system, x={site: exponent})
    if kind == "Z":
        return PauliOperator(system, z={site: exponent})
    raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")


def multiply(P: PauliOperator, Q: PauliOperator) -> PauliOperator:
    """Normal-ordered product P*Q with exact phase tracking.

    Reordering Z_q^{z} past X_q^{x'} contributes 2*(D/d_q)*z*x' to the
    mod-2D phase exponent.
    """
    system = P.system
    _check_system(system, Q)
    D = system.D
    phase = P.phase + Q.phase
    x = dict(P.x)
    z = dict(P.z)
    for site, xq in Q.x.items():
        zq = z.get(site)
        if zq:
            phase += 2 * (D // system.dims[site]) * zq * xq
        x[site] = x.get(site, 0) + xq
    for site, zq in Q.z.items():
        z[site] = z.get(site, 0) + zq
    return _make(system, phase, x, z)


def product(ops: Iterable[PauliOperator],
            system: QuditSystem | None = None) -> PauliOperator:
    """Ordered product of operators (left to right)."""
    result = None
    for op in ops:
        result = op if result is None else multiply(result, op)
    if result is None:
        if system is None:
            raise ValueError("empty product needs an explicit system")
        return identity(system)
    return result


def adjoint(P: PauliOperator) -> PauliOperator:
    """Hermitian conjugate, P^{-1}: multiply(P, adjoint(P)) is the
    identity."""
    return product_of_powers(P.system, [(P, -1)])


def power(P: PauliOperator, k: int) -> PauliOperator:
    """P^k in closed form (supports very large |k| of either sign)."""
    return product_of_powers(P.system, [(P, k)])


def product_of_powers(system: QuditSystem,
                      factors: Iterable[tuple[PauliOperator, int]]
                      ) -> PauliOperator:
    """prod_i P_i^{a_i} in the given order, with exact phase.

    Equals the chain ``multiply(out, power(P, a))`` but accumulates phase
    and exponents in one pair of dicts and reduces once at the end. That is
    exact: the reordering phase 2*(D/d)*z*x is unchanged mod 2D when z or x
    moves by a multiple of d.
    """
    D = system.D
    dims = system.dims
    phase = 0
    x: dict[int, int] = {}
    z: dict[int, int] = {}
    for P, a in factors:
        if not a:
            continue
        _check_system(system, P)
        # (ph X^x Z^z)^a = ph^a * c^(a choose 2) * X^{ax} Z^{az}, for any
        # integer a, with c the phase from commuting one Z^z block past one
        # X^x block.
        c = 0
        for site, zq in P.z.items():
            xq = P.x.get(site)
            if xq:
                c += 2 * (D // dims[site]) * zq * xq
        phase += a * P.phase + (a * (a - 1) // 2) * c
        for site, xq in P.x.items():
            xq *= a
            zq = z.get(site)
            if zq:
                phase += 2 * (D // dims[site]) * zq * xq
            x[site] = x.get(site, 0) + xq
        for site, zq in P.z.items():
            z[site] = z.get(site, 0) + a * zq
    return _make(system, phase, x, z)


def commutation_total(P: PauliOperator, Q: PauliOperator) -> int:
    """The integer sum of (D/d_q) * (z_P x_Q - x_P z_Q) over sites q, of
    which commutation_exponent(P, Q) is the residue mod D. For commuting
    P and Q it is D times an integer whose parity the kernel phases of a
    stabilizer group read.

    Only P's z sites against Q's x sites and P's x sites against Q's z
    sites can contribute.
    """
    system = P.system
    _check_system(system, Q)
    D = system.D
    dims = system.dims
    total = 0
    Qx, Qz = Q.x, Q.z
    for site, zp in P.z.items():
        xq = Qx.get(site)
        if xq:
            total += (D // dims[site]) * zp * xq
    for site, xp in P.x.items():
        zq = Qz.get(site)
        if zq:
            total -= (D // dims[site]) * xp * zq
    return total


def commutation_exponent(P: PauliOperator, Q: PauliOperator) -> int:
    """e in [0, D) with P Q = e^{2*pi*i*e/D} Q P (operator phases drop out)."""
    return commutation_total(P, Q) % P.system.D


def commutation_phase(P: PauliOperator, Q: PauliOperator) -> Rational01:
    """phi with P Q = e^{2*pi*i*phi} Q P (independent of operator phases)."""
    return Rational01(commutation_exponent(P, Q), P.system.D)


# ---------------------------------------------------------------------------
# Control-X conjugation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuditCX:
    """The qudit control-X gate |a, b> -> |a, a + b> on (control, target)."""

    control: int
    target: int

    def validate(self, system: QuditSystem) -> None:
        c, t = self.control, self.target
        system.check_site(c)
        system.check_site(t)
        if c == t or system.dims[c] != system.dims[t]:
            raise ValueError("control-X needs two distinct sites of equal "
                             f"dimension, got sites {c} and {t}")


def qudit_cx(control: int, target: int) -> QuditCX:
    return QuditCX(control, target)


def conjugate(P: PauliOperator, circuit: Sequence[QuditCX]) -> PauliOperator:
    """U P U^dag for U the ordered product of the circuit's gates.

    Gates are applied in sequence order: the first gate is the innermost
    (applied first to states), so conjugation proceeds left to right.

    Each gate acts on the exponents alone: x_t += x_c and z_c -= z_t, from
    CX X_c CX^dag = X_c X_t and CX Z_t CX^dag = Z_c^{-1} Z_t, with X_t and
    Z_c fixed. No phase appears: P's X factors commute among themselves and
    so do its Z factors, so the images of the product of all X powers and of
    the product of all Z powers are again such products, in normal order.
    """
    system = P.system
    dims = system.dims
    x = dict(P.x)
    z = dict(P.z)
    for gate in circuit:
        gate.validate(system)
        c, t = gate.control, gate.target
        xc = x.get(c)
        if xc:
            x[t] = (x.get(t, 0) + xc) % dims[t]
        zt = z.get(t)
        if zt:
            z[c] = (z.get(c, 0) - zt) % dims[c]
    return _make(system, P.phase, x, z)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PHASE_NAMES = {1: "i · ", 2: "-1 · ", 3: "-i · "}


def render(P: PauliOperator) -> str:
    """Canonical text form, e.g. "i · X[3]^2 Z[7]^1"."""
    D = P.system.D
    if P.phase == 0:
        head = ""
    elif (4 * P.phase) % (2 * D) == 0:
        head = _PHASE_NAMES[(4 * P.phase) // (2 * D) % 4]
    else:
        head = f"e^(i*pi*{P.phase}/{D}) · "
    parts = []
    for site in sorted(set(P.x) | set(P.z)):
        if P.x.get(site):
            parts.append(f"X[{site}]^{P.x[site]}")
        if P.z.get(site):
            parts.append(f"Z[{site}]^{P.z[site]}")
    body = " ".join(parts) if parts else "1"
    return head + body
