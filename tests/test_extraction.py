"""Tests for anyon-statistics extraction and the SPT boundary cocycle."""

import pytest

from tqdstab.anyon import (ds_theory, theories_isomorphic,
                           topological_spins_census, tqd_theory,
                           zn_tc_theory)
from tqdstab.exactmath import Rational01
from tqdstab.extraction import (ConfinedLabelError, JunctionSpec,
                                cocycle_is_valid, crossing_braiding,
                                default_junction, extract_theory,
                                extraction_report, fusion_order,
                                logical_algebra, model_group, spt_cocycle,
                                spt_report, t_junction_theta)
from tqdstab.lattice import (AnyonLabel, LatticeModel, TqdParams,
                             build_ds, build_from_spec, build_hatted_ds,
                             build_spt, build_tqd, build_zn_tc)

R = Rational01

JUNCTIONS = [
    default_junction((0, 0)),
    default_junction((1, 1)),
    JunctionSpec((0, 0), (("E",), ("N",), ("W",))),
]


@pytest.fixture(scope="module")
def ds_model():
    return build_ds(3, 3)[1]


@pytest.fixture(scope="module")
def z4_model():
    return build_zn_tc(4, 3, 3)[1]


# ---------------------------------------------------------------------------
# Junction geometry
# ---------------------------------------------------------------------------


class TestJunctionSpec:
    def test_needs_three_arms(self):
        with pytest.raises(ValueError):
            JunctionSpec((0, 0), (("E",), ("N",)))

    def test_needs_distinct_directions(self):
        with pytest.raises(ValueError):
            JunctionSpec((0, 0), (("E",), ("E", "N"), ("W",)))

    def test_needs_ccw_order(self):
        with pytest.raises(ValueError):
            JunctionSpec((0, 0), (("E",), ("W",), ("N",)))

    def test_overlapping_arms_rejected(self, ds_model):
        bad = JunctionSpec((0, 0), (("E", "E", "E"), ("N",), ("W",)))
        with pytest.raises(ValueError):
            bad.validate(ds_model)  # length-3 arm wraps onto the W arm


# ---------------------------------------------------------------------------
# Exchange statistics and braiding
# ---------------------------------------------------------------------------


class TestDoubleSemionStatistics:
    @pytest.mark.parametrize("junction", JUNCTIONS)
    def test_theta_values(self, ds_model, junction):
        assert t_junction_theta(ds_model, "s", junction) == R(1, 4)
        assert t_junction_theta(ds_model, "sbar", junction) == R(3, 4)
        assert t_junction_theta(ds_model, "ssbar", junction) == R(0)

    def test_braiding_values(self, ds_model):
        assert crossing_braiding(ds_model, "s", "s") == R(1, 2)
        assert crossing_braiding(ds_model, "s", "sbar") == R(0)
        assert crossing_braiding(ds_model, "sbar", "sbar") == R(1, 2)

    def test_confined_charge_rejected(self, ds_model):
        with pytest.raises(ConfinedLabelError):
            t_junction_theta(ds_model, AnyonLabel((0,), (1,)))

    def test_fusion_orders(self, ds_model):
        assert fusion_order(ds_model, "s") == 2
        assert fusion_order(ds_model, "sbar") == 2
        assert fusion_order(ds_model, "ssbar") == 2


class TestToricCodeStatistics:
    def test_z4_theta_table(self, z4_model):
        for p in range(4):
            for q in range(4):
                lab = AnyonLabel((q,), (p,))
                assert t_junction_theta(z4_model, lab) == R(p * q, 4)

    def test_z4_braiding(self, z4_model):
        assert crossing_braiding(z4_model, "e", "m") == R(1, 4)
        assert crossing_braiding(z4_model, "e", "e") == R(0)

    def test_z2_fusion_orders(self):
        _, model = build_zn_tc(2, 3, 3)
        assert fusion_order(model, "e") == 2
        assert fusion_order(model, "m") == 2
        assert fusion_order(model, "em") == 2


# ---------------------------------------------------------------------------
# Theory extraction
# ---------------------------------------------------------------------------


class TestExtractTheory:
    def test_ds_matches_target(self, ds_model):
        ext = extract_theory(ds_model)
        assert ext.fusion_orders == (2, 2)
        assert theories_isomorphic(ext.theory, ds_theory())

    def test_z3_twisted(self):
        _, model = build_tqd(TqdParams([3], [1]), 3, 3)
        ext = extract_theory(model)
        assert theories_isomorphic(ext.theory, tqd_theory([3], [1]))

    def test_z2_toric_code(self):
        _, model = build_zn_tc(2, 3, 3)
        ext = extract_theory(model)
        assert theories_isomorphic(ext.theory, zn_tc_theory(2))

    def test_six_semion_census(self):
        _, model = build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}), 3, 3)
        ext = extract_theory(model)
        assert topological_spins_census(ext.theory) == {
            "0/1": 4, "1/4": 6, "3/4": 6}

    def test_braiding_consistent_with_theta(self, ds_model):
        ext = extract_theory(ds_model)
        for v1 in ext.box():
            for v2 in ext.box():
                s = tuple(a + b for a, b in zip(v1, v2))
                lhs = ext.braiding[(v1, v2)]
                rhs = (t_junction_theta(ds_model, ext.combine(s), check=False)
                       - ext.theta[v1] - ext.theta[v2])
                assert lhs == rhs

    def test_report_shape(self, ds_model):
        report = extraction_report(ds_model)
        assert report["iso_match"] is True
        assert report["generators"] == ["s", "sbar"]
        assert report["fusion_orders"] == {"s": 2, "sbar": 2}
        assert report["theta"]["1,0"] == "1/4"
        assert report["theta"]["0,1"] == "3/4"
        assert report["theta"]["1,1"] == "0/1"

    def test_model_group_is_builder_group(self):
        twisted = TqdParams([2, 2], [1, 1], {(0, 1): 1})
        for group, model in (build_zn_tc(2, 3, 3), build_ds(3, 3),
                             build_tqd(twisted, 3, 3), build_spt(3, 3),
                             build_hatted_ds(3, 3),
                             build_from_spec({"type": "tc", "L": 3})):
            assert model.group is group
            assert model_group(model) is group

    def test_model_group_needs_a_built_model(self, ds_model):
        bare = LatticeModel("ds", ds_model.lattice, params=ds_model.params)
        with pytest.raises(ValueError, match="'ds'"):
            model_group(bare)


class TestLogicalAlgebra:
    def test_ds_logical_pairs(self, ds_model):
        data = logical_algebra(ds_model)
        assert data["operators"] == ["X1", "Z1", "X2", "Z2"]
        comm = data["commutation"]
        assert comm["X1"]["Z1"] == "1/2"
        assert comm["X2"]["Z2"] == "1/2"
        assert comm["X1"]["X2"] == "0/1"
        assert comm["X1"]["Z2"] == "0/1"
        assert data["orders"] == {"X1": 2, "Z1": 2, "X2": 2, "Z2": 2}
        assert set(data["power_membership"].values()) == {"Member"}

    def test_toric_code_logical_pairs(self):
        _, model = build_zn_tc(2, 3, 3)
        data = logical_algebra(model)
        comm = data["commutation"]
        assert comm["X1"]["Z1"] == "1/2"
        assert comm["X1"]["Z2"] == "0/1"


# ---------------------------------------------------------------------------
# SPT boundary cocycle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spt_model():
    return build_spt(7, 5)[1]


class TestSptCocycle:
    def test_table(self, spt_model):
        table = spt_cocycle(spt_model, 4)
        for key, val in table.items():
            if key == (1, 1, 1):
                assert val == R(1, 2)
            else:
                assert val.is_zero()
        assert cocycle_is_valid(table)

    def test_report(self, spt_model):
        report = spt_report(spt_model, 4)
        assert report["interval"] == 4
        assert report["omega"]["111"] == "1/2"
        assert report["omega"]["110"] == "0/1"
        assert report["cocycle_valid"] and report["nontrivial"]

    def test_short_interval_rejected(self, spt_model):
        with pytest.raises(ValueError):
            spt_cocycle(spt_model, 3)

    def test_small_torus_rejected(self):
        _, small = build_spt(4, 4)
        with pytest.raises(ValueError):
            spt_cocycle(small, 4)

    def test_wrong_model_kind_rejected(self, ds_model):
        with pytest.raises(ValueError):
            spt_cocycle(ds_model, 4)

    def test_trivial_cocycle_passes_validity(self):
        from itertools import product
        table = {key: R(0) for key in product(range(2), repeat=3)}
        assert cocycle_is_valid(table)
        table[(1, 1, 0)] = R(1, 4)
        assert not cocycle_is_valid(table)
