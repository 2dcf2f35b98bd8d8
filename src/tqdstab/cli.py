"""Command-line interface: build models, verify them, and extract anyon data.

Every subcommand is a thin wrapper over a library operation and writes a
deterministic JSON report (sorted keys, rationals rendered as "p/q").
Exit codes: 0 pass, 1 verification failure, 2 usage or spec error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import anyon, circuitmap, extraction, kmatrix
from . import lattice as lat
from .exactmath import IntMatrix
from .stabilizer import (VerificationError, logical_dimension,
                         scalar_consistency)


class SpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="path to a JSON model/param spec")
    p.add_argument("--N", help="comma-separated cyclic factors, e.g. 2,4")
    p.add_argument("--n", help="comma-separated type-I exponents")
    p.add_argument("--nij", help='type-II exponents as "i,j,v;i,j,v;..."')
    p.add_argument("--L", type=int, help="torus size (square)")
    p.add_argument("--Lx", type=int)
    p.add_argument("--Ly", type=int)
    p.add_argument("--type", dest="model_type",
                   choices=["tc", "ds", "tqd", "spt"])


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _parse_nij(text: str) -> dict:
    """--nij "i,j,v;..." as {(i, j): v}; SpecError naming a bad entry."""
    table = {}
    for part in text.split(";"):
        if not part:
            continue
        try:
            i, j, v = (int(t) for t in part.split(","))
        except ValueError:
            raise SpecError(f"--nij entry {part!r} is not three integers; "
                            "expected i,j,v;...") from None
        table[(i, j)] = v
    return table


def _load_spec(args) -> dict:
    spec: dict = {}
    if args.spec:
        try:
            with open(args.spec) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"cannot read spec {args.spec}: {exc}")
        if not isinstance(spec, dict):
            raise SpecError(f"spec {args.spec} must hold a JSON object, "
                            f"not {type(spec).__name__}")
    if getattr(args, "model_type", None):
        spec["type"] = args.model_type
    if args.N:
        spec["N"] = _parse_int_list(args.N)
    if args.n is not None and args.n != "":
        spec["n"] = _parse_int_list(args.n)
    if args.nij:
        spec["nij"] = _parse_nij(args.nij)
    for key in ("L", "Lx", "Ly"):
        val = getattr(args, key, None)
        if val is not None:
            spec[key] = val
    return spec


def _spec_matrix(spec: dict, key: str) -> IntMatrix:
    """The integer matrix under spec[key], read as rows of integers;
    SpecError naming the key otherwise."""
    rows = spec.get(key)
    if not isinstance(rows, list):
        raise SpecError(f"spec key {key!r} must be a list of integer rows, "
                        f"got {rows!r}")
    return IntMatrix([lat._int_list(row, key) for row in rows])


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_model_build(args) -> int:
    group, model = lat.build_from_spec(_load_spec(args))
    report = {
        "kind": model.kind,
        "Lx": model.lattice.Lx,
        "Ly": model.lattice.Ly,
        "edge_dims": list(model.lattice.edge_dims),
        "vertex_dims": list(model.lattice.vertex_dims),
        "n_sites": model.system.n_sites,
        "n_generators": len(group.generators),
        "labels": sorted(model.labels),
    }
    _emit(report, args)
    return 0


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    check = args.check
    if check == "condensation-equality":
        equal = lat.condensation_equal(lat.params_from_spec(spec),
                                       *lat.size_from_spec(spec))
        _emit({"check": check, "equal": equal}, args)
        return 0 if equal else 1
    group, model = lat.build_from_spec(spec)
    if check == "commuting":
        # StabilizerGroup ran the commutation pass when it was made and
        # raised NonCommutingError (exit 1) on any violation
        _emit({"check": check, "commuting": True}, args)
        return 0
    if check == "scalar":
        result = scalar_consistency(group)
        _emit({"check": check, "consistent": result.consistent}, args)
        return 0 if result.consistent else 1
    if check == "degeneracy":
        dim = logical_dimension(group)
        expected = _expected_dimension(model)
        _emit({"check": check, "logical_dimension": dim,
               "expected": expected}, args)
        return 0 if expected is None or dim == expected else 1
    raise SpecError(f"unknown verify check {check!r}")


def _expected_dimension(model) -> int | None:
    if model.kind == "tc":
        return model.tc_N ** 2
    if model.kind in ("ds", "tqd"):
        out = 1
        for N in model.params.N:
            out *= N * N
        return out
    if model.kind == "spt":
        return 1
    return None


def cmd_anyons_extract(args) -> int:
    spec = _load_spec(args)
    spec["Lx"], spec["Ly"] = lat.size_from_spec(spec, 3, 3)
    group, model = lat.build_from_spec(spec)
    report = extraction.extraction_report(model)
    _emit(report, args)
    return 0 if report["iso_match"] else 1


def cmd_theory(args) -> int:
    params = lat.params_from_spec(_load_spec(args))
    what = args.what
    if what == "tqd":
        theory = anyon.tqd_theory(params)
        report = theory.to_json_dict()
        report["census"] = anyon.topological_spins_census(theory)
        _emit(report, args)
        return 0
    if what == "condense":
        result, iso = anyon.stack_condense_to_tqd(params)
        report = {"condensed": result.theory.to_json_dict(),
                  "matches_tqd": bool(iso)}
        _emit(report, args)
        return 0 if iso else 1
    if what == "lagrangian":
        theory = anyon.tqd_theory(params)
        subs = anyon.lagrangian_subgroups(theory)
        report = {"count": len(subs),
                  "subgroups": [sorted(map(list, sub)) for sub in subs]}
        _emit(report, args)
        return 0
    if what == "stack":
        stacked = anyon.stack_theories(
            [anyon.zn_tc_theory(N * N) for N in params.N])
        report = stacked.to_json_dict()
        report["census"] = anyon.topological_spins_census(stacked)
        _emit(report, args)
        return 0
    if what == "iso":
        t_direct = anyon.tqd_theory(params)
        t_k = kmatrix.theory_from_k(kmatrix.build_k_tqd(params))
        _, iso_cond = anyon.stack_condense_to_tqd(params, target=t_direct)
        report = {"kmatrix_match": anyon.theories_isomorphic(t_direct, t_k),
                  "condensation_match": bool(iso_cond)}
        _emit(report, args)
        return 0 if all(report.values()) else 1
    if what == "fusion-group":
        direct = anyon.fusion_group(params)
        via_cocycle = anyon.fusion_group_from_cocycle(params)
        report = {"fusion_group": direct, "via_cocycle": via_cocycle,
                  "match": direct == via_cocycle}
        _emit(report, args)
        return 0 if direct == via_cocycle else 1
    if what == "cocycle":
        M = params.M
        zero = (0,) * M
        one = tuple(1 for _ in range(M))
        samples = {}
        for g, h, k in ((zero, zero, zero), (one, one, one),
                        (one, zero, one), (zero, one, one)):
            val = anyon.cocycle_value(params, g, h, k)
            samples[f"{g}|{h}|{k}"] = str(val)
        _emit({"samples": samples}, args)
        return 0
    raise SpecError(f"unknown theory subcommand {what!r}")


def cmd_kmatrix(args) -> int:
    spec = _load_spec(args)
    what = args.what
    if what == "transform":
        if not args.spec:
            raise SpecError("kmatrix transform needs --spec with K and W")
        K, W = (_spec_matrix(spec, key) for key in ("K", "W"))
        _emit({"K": kmatrix.transform(K, W).tolist()}, args)
        return 0
    params = lat.params_from_spec(spec)
    K = kmatrix.build_k_tqd(params)
    if what == "build":
        _emit(kmatrix.to_json_dict(K), args)
        return 0
    if what == "census":
        _emit({"census": kmatrix.census(K)}, args)
        return 0
    if what == "condense-check":
        cm = kmatrix.condensation_matrices(params)
        report = dict(cm.report)
        report["all_identities_hold"] = cm.all_identities_hold
        _emit(report, args)
        return 0 if cm.all_identities_hold else 1
    raise SpecError(f"unknown kmatrix subcommand {what!r}")


def cmd_spt_cocycle(args) -> int:
    spec = _load_spec(args)
    _, model = lat.build_spt(*lat.size_from_spec(spec, args.ell + 3, 6))
    report = extraction.spt_report(model, args.ell)
    _emit(report, args)
    return 0 if report["cocycle_valid"] else 1


def cmd_appendixa_check(args) -> int:
    if args.samples < 1:
        raise SpecError(f"--samples must be at least 1, got {args.samples}")
    tri = circuitmap.TriangularLattice(3)
    rng = random.Random(7)
    n_checked, ok = 0, True
    for _ in range(args.samples):
        b = {v: rng.randrange(2) for v in tri.vertices()}
        lhs = circuitmap.amplitude_psi(tri, b)
        rhs = (-1) ** circuitmap.domain_wall_count(tri, b)
        ok = ok and (lhs == rhs)
        n_checked += 1
    table1 = circuitmap.table1_identity()
    report = {"psi_identity": {"checked": n_checked, "ok": ok},
              "table1": table1}
    _emit(report, args)
    return 0 if ok and table1["agree"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqdstab",
        description="Exact stabilizer models of twisted quantum doubles")
    parser.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="model builders")
    model_sub = p_model.add_subparsers(dest="subcommand", required=True)
    p_build = model_sub.add_parser("build")
    _add_param_args(p_build)
    p_build.set_defaults(func=cmd_model_build)

    p_verify = sub.add_parser("verify", help="stabilizer-group checks")
    p_verify.add_argument("check", choices=[
        "commuting", "scalar", "degeneracy", "condensation-equality"])
    _add_param_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_anyons = sub.add_parser("anyons", help="anyon-data extraction")
    anyons_sub = p_anyons.add_subparsers(dest="subcommand", required=True)
    p_extract = anyons_sub.add_parser("extract")
    _add_param_args(p_extract)
    p_extract.set_defaults(func=cmd_anyons_extract)

    p_theory = sub.add_parser("theory", help="abstract anyon theories")
    p_theory.add_argument("what", choices=[
        "tqd", "condense", "lagrangian", "stack", "iso", "fusion-group",
        "cocycle"])
    _add_param_args(p_theory)
    p_theory.set_defaults(func=cmd_theory)

    p_kmatrix = sub.add_parser("kmatrix", help="K-matrix computations")
    p_kmatrix.add_argument("what", choices=[
        "build", "census", "condense-check", "transform"])
    _add_param_args(p_kmatrix)
    p_kmatrix.set_defaults(func=cmd_kmatrix)

    p_spt = sub.add_parser("spt", help="SPT boundary cocycle")
    spt_sub = p_spt.add_subparsers(dest="subcommand", required=True)
    p_cocycle = spt_sub.add_parser("cocycle")
    p_cocycle.add_argument("--ell", type=int, default=4)
    _add_param_args(p_cocycle)
    p_cocycle.set_defaults(func=cmd_spt_cocycle)

    p_appa = sub.add_parser("appendixa", help="amplitude/circuit identities")
    appa_sub = p_appa.add_subparsers(dest="subcommand", required=True)
    p_check = appa_sub.add_parser("check")
    p_check.add_argument("--samples", type=int, default=50)
    p_check.set_defaults(func=cmd_appendixa_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except (KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
