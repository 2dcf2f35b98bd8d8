"""The library calls each benchmark job makes.

Every job goes through the public entry points that ``tqdstab.cli`` uses
for the matching subcommand and returns a JSON-ready answer, which the
runner compares with the job's known answer and with ``golden.json``.
"""

from __future__ import annotations

# Module-qualified calls only, so that the layer trace's wrappers, which
# replace module attributes, see every call the jobs make.
from tqdstab import anyon, extraction, stabilizer
from tqdstab import lattice as lat


def _params(spec: dict) -> lat.TqdParams:
    return lat.TqdParams(spec["N"], spec["n"], spec.get("nij"))


def _degeneracy(job: dict) -> dict:
    # `tqdstab verify degeneracy`
    group, _ = lat.build_from_spec(job["spec"])
    return {"logical_dimension": stabilizer.logical_dimension(group)}


def _anyons(job: dict) -> dict:
    # `tqdstab anyons extract`, with the junction centre made explicit.
    _, model = lat.build_from_spec(job["spec"])
    junction = extraction.default_junction(tuple(job["centre"]))
    ext = extraction.extract_theory(model, junction=junction)
    if model.kind == "tc":
        target = anyon.zn_tc_theory(model.tc_N)
    else:
        p = model.params
        target = anyon.tqd_theory(p.N, p.n, p.nij)
    box = ext.box()
    return {
        "fusion_orders": dict(zip(ext.generator_names, ext.fusion_orders)),
        "theta": {",".join(map(str, v)): str(ext.theta[v]) for v in box},
        "braiding": [[str(ext.braiding[(v1, v2)]) for v2 in box]
                     for v1 in box],
        "iso_match": anyon.theories_isomorphic(ext.theory, target),
    }


def _condensation(job: dict) -> dict:
    # `tqdstab verify condensation-equality`
    L = job["spec"]["L"]
    return {"equal": lat.condensation_equal(_params(job["spec"]), L, L)}


def _spt(job: dict) -> dict:
    # `tqdstab spt cocycle --ell 4`
    spec = job["spec"]
    _, model = lat.build_spt(spec["Lx"], spec["Ly"])
    report = extraction.spt_report(model, spec["ell"])
    return {key: report[key] for key in ("omega", "cocycle_valid")}


def _control_groups_equal(job: dict) -> dict:
    # Negative control: the double semion is not the untwisted Z2 double.
    L = job["spec"]["L"]
    ds, _ = lat.build_ds(L, L)
    untwisted, _ = lat.build_tqd(lat.TqdParams([2], [0]), L, L)
    return {"equal": stabilizer.groups_equal(ds, untwisted)}


def _control_member(job: dict) -> dict:
    # Negative control: a noncontractible phi1 loop is a logical operator.
    L = job["spec"]["L"]
    group, model = lat.build_ds(L, L)
    label = model.label("phi1")
    loop = lat.string_operator(
        model, label, lat.PathSpec(label.path_kind, (0, 0), ("E",) * L,
                                   closed=True))
    return {"verdict": stabilizer.member_with_phase(group, loop).verdict}


RUNNERS = {
    "degeneracy": _degeneracy,
    "anyons": _anyons,
    "condensation": _condensation,
    "spt": _spt,
    "control_groups_equal": _control_groups_equal,
    "control_member": _control_member,
}


def run_job(job: dict) -> dict:
    return RUNNERS[job["kind"]](job)
