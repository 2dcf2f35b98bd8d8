"""Tests for torus lattice models, string operators, and builders."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tqdstab.lattice import (AnyonLabel, DS_PARAMS, H, LatticeModel, PathSpec,
                             TorusLattice, TqdParams, V, build_ds,
                             build_from_spec, build_hatted_ds, build_spt,
                             build_tqd, build_zn_tc, condensation_equal,
                             direct_loop_around_plaquette, ds_edge_terms,
                             dual_loop_around_vertex, plaquette_terms,
                             spt_edge_terms, string_operator, tc_stack_group,
                             vertex_terms)
from tqdstab.pauli import PauliOperator, commutes, product
from tqdstab.stabilizer import (StabilizerGroup, assert_commuting,
                                group_order, groups_equal, logical_dimension,
                                measure, member_with_phase,
                                scalar_consistency)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class TestTqdParams:
    def test_basic(self):
        p = TqdParams([2, 4], [1, 3], {(0, 1): 1})
        assert p.M == 2
        assert p.N == (2, 4)
        assert p.n == (1, 3)
        assert p.nij[0][1] == p.nij[1][0] == 1

    def test_diagonal_holds_doubled_type_i(self):
        p = TqdParams([4], [3])
        assert p.nij[0][0] == (2 * 3) % 4

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            TqdParams([6], [0])

    def test_rejects_descending_factors(self):
        with pytest.raises(ValueError):
            TqdParams([4, 2], [0, 0])

    def test_rejects_out_of_range_exponents(self):
        with pytest.raises(ValueError):
            TqdParams([2], [2])
        with pytest.raises(ValueError):
            TqdParams([2, 4], [0, 0], {(0, 1): 2})  # gcd(2, 4) = 2

    def test_rejects_asymmetric_table(self):
        with pytest.raises(ValueError):
            TqdParams([2, 2], [0, 0], [[0, 1], [0, 0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TqdParams([2, 2], [0])


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


class TestTorusLattice:
    def test_site_counts(self):
        t = TorusLattice(3, 4, (4,))
        assert t.n_cells == 12
        assert t.n_edge_sites == 24
        assert t.system().n_sites == 24

    def test_layered_counts(self):
        t = TorusLattice(3, 3, (4, 16), vertex_dims=(2,))
        assert t.n_edge_sites == 36
        assert t.system().n_sites == 45
        assert t.system().dims[:18] == (4,) * 18
        assert t.system().dims[18:36] == (16,) * 18
        assert t.system().dims[36:] == (2,) * 9

    def test_edge_site_indexing(self):
        t = TorusLattice(3, 3, (4,))
        assert t.edge_site(0, 0, H) == 0
        assert t.edge_site(0, 0, V) == 1
        assert t.edge_site(1, 0, H) == 2
        assert t.edge_site(0, 1, H) == 6
        # wrapping
        assert t.edge_site(3, 3, H) == t.edge_site(0, 0, H)
        assert t.edge_site(-1, 0, V) == t.edge_site(2, 0, V)

    def test_vertex_sites_follow_edges(self):
        t = TorusLattice(2, 2, (4,), vertex_dims=(2,))
        assert t.vertex_site(0, 0) == t.n_edge_sites
        assert t.vertex_site(1, 1) == t.n_edge_sites + 3

    def test_all_sites_distinct(self):
        t = TorusLattice(3, 2, (2, 3), vertex_dims=(2,))
        sites = [t.edge_site(x, y, o, layer)
                 for layer in range(2) for y in range(2) for x in range(3)
                 for o in (H, V)]
        sites += [t.vertex_site(x, y) for y in range(2) for x in range(3)]
        assert len(set(sites)) == len(sites) == t.system().n_sites

    def test_site_legend(self):
        t = TorusLattice(2, 2, (4,), vertex_dims=(2,))
        legend = t.site_legend()
        assert len(legend) == t.system().n_sites
        assert legend["0"] == "edge H(0,0) layer 0 (d=4)"
        assert legend[str(t.vertex_site(0, 0))] == "vertex (0,0) layer 0 (d=2)"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            TorusLattice(1, 3, (2,))

    def test_system_is_built_once(self):
        t = TorusLattice(3, 3, (4, 16), vertex_dims=(2,))
        assert t.system() is t.system()
        assert t.system().D == 16
        # the stored system leaves equality and hashing alone
        fresh = TorusLattice(3, 3, (4, 16), vertex_dims=(2,))
        assert fresh == t and hash(fresh) == hash(t)


class TestPathSpec:
    def test_points_wrap(self):
        t = TorusLattice(3, 3, (4,))
        p = PathSpec("dual", (2, 0), ("E", "N"))
        assert p.points(t) == [(2, 0), (0, 0), (0, 1)]

    def test_invalid_move(self):
        with pytest.raises(ValueError):
            PathSpec("dual", (0, 0), ("Q",))

    def test_closed_validation(self):
        t = TorusLattice(3, 3, (4,))
        PathSpec("dual", (0, 0), ("E", "N", "W", "S"), closed=True).validate(t)
        with pytest.raises(ValueError):
            PathSpec("dual", (0, 0), ("E",), closed=True).validate(t)

    def test_from_points_roundtrip(self):
        t = TorusLattice(4, 4, (4,))
        p = PathSpec("direct", (1, 1), ("E", "E", "N", "W", "S"))
        q = PathSpec.from_points("direct", p.points(t), t)
        assert q.points(t) == p.points(t)

    def test_from_points_rejects_jumps(self):
        t = TorusLattice(4, 4, (4,))
        with pytest.raises(ValueError):
            PathSpec.from_points("dual", [(0, 0), (2, 0)], t)

    def test_standard_loops(self):
        assert dual_loop_around_vertex(1, 1).start == (0, 0)
        assert direct_loop_around_plaquette(1, 1).start == (1, 1)
        assert dual_loop_around_vertex(0, 0).closed


class TestAnyonLabel:
    def test_arithmetic(self):
        a = AnyonLabel((1, 0), (0, 2))
        assert (2 * a).flux == (2, 0)
        assert a.combine(a).charge == (0, 4)

    def test_path_kind(self):
        assert AnyonLabel((0,), (3,)).path_kind == "direct"
        assert AnyonLabel((1,), (3,)).path_kind == "dual"

    def test_reduced(self):
        a = AnyonLabel((5,), (-1,))
        assert a.reduced([4]) == ((1,), (3,))


# ---------------------------------------------------------------------------
# String operators
# ---------------------------------------------------------------------------


class TestStringOperators:
    def test_flux_segment_east(self):
        # One east dual step of the unit flux: X on the far vertical edge,
        # with the bound charge hopping on the far-corner horizontal edge.
        _, model = build_ds(3, 3)
        t = model.lattice
        seg = model._segment((0, 0), "E", model.labels["phi1"])
        assert dict(seg.x) == {t.edge_site(1, 0, V): 1}
        assert dict(seg.z) == {t.edge_site(1, 1, H): 1}

    def test_flux_segment_north(self):
        _, model = build_ds(3, 3)
        t = model.lattice
        seg = model._segment((0, 0), "N", model.labels["phi1"])
        assert dict(seg.x) == {t.edge_site(0, 1, H): 3}
        assert dict(seg.z) == {t.edge_site(1, 1, V): 1}

    def test_west_is_adjoint_of_east(self):
        from tqdstab.pauli import adjoint, multiply
        _, model = build_ds(3, 3)
        east = model._segment((1, 1), "E", model.labels["phi1"])
        west = model._segment((2, 1), "W", model.labels["phi1"])
        assert multiply(east, west).is_identity()

    def test_charge_segment_has_no_x(self):
        _, model = build_ds(3, 3)
        seg = model._segment((0, 0), "E", model.labels["c1"])
        assert not seg.x and seg.z

    def test_kind_mismatch_rejected(self):
        _, model = build_ds(3, 3)
        with pytest.raises(ValueError):
            string_operator(model, "s", PathSpec("direct", (0, 0), ("E",)))

    def test_closed_strings_commute_with_stabilizers(self):
        group, model = build_ds(3, 3)
        for name in ("s", "sbar", "ssbar"):
            loop = string_operator(
                model, name,
                PathSpec(model.labels[name].path_kind, (0, 0), ("E",) * 3,
                         closed=True))
            assert all(commutes(loop, g) for g in group.generators)

    def test_label_parsing_single_layer(self):
        _, model = build_zn_tc(4, 3, 3)
        assert model.label("e") == AnyonLabel((0,), (1,))
        assert model.label("m") == AnyonLabel((1,), (0,))
        assert model.label("em") == AnyonLabel((1,), (1,))
        assert model.label("e2m3") == AnyonLabel((3,), (2,))
        assert model.label("e^-1") == AnyonLabel((0,), (-1,))
        assert model.label("1") == AnyonLabel((0,), (0,))

    def test_unknown_label(self):
        _, model = build_ds(3, 3)
        with pytest.raises(KeyError):
            model.label("zork")


def _uncached(model, label, path):
    return product(model.string_segments(label, path), system=model.system)


@pytest.fixture(scope="module")
def memo_models():
    """Small models whose string memos persist across hypothesis examples,
    so later examples hit entries made by earlier ones."""
    return [build_ds(3, 3)[1],
            build_zn_tc(4, 3, 3)[1],
            build_tqd(TqdParams([2, 4], [0, 1], {(0, 1): 1}), 3, 3)[1]]


class TestStringMemo:
    def test_bound_charge_is_part_of_the_key(self):
        # Twisted N=[2,4]: fluxes (4,1) and (0,1) agree mod the layer
        # dimensions (4, 16) but bind different charges.
        params = TqdParams([2, 4], [0, 0], {(0, 1): 1})
        path = PathSpec("dual", (0, 0), ("E",))
        a = AnyonLabel((4, 1), (0, 0))
        b = AnyonLabel((0, 1), (0, 0))
        assert a.reduced((4, 16)) == b.reduced((4, 16))
        for first, second in ((a, b), (b, a)):
            _, model = build_tqd(params, 3, 3)
            op_first = string_operator(model, first, path)
            op_second = string_operator(model, second, path)
            assert op_first == _uncached(model, first, path)
            assert op_second == _uncached(model, second, path)
            assert op_first != op_second

    def test_path_kind_checked_on_a_cache_hit(self):
        # Flux 4 on the d=4 DS layer has the key of the trivial label, but
        # it is a dual-path label while the trivial label is direct.
        _, model = build_ds(3, 3)
        path = PathSpec("dual", (0, 0), ("E", "N"))
        string_operator(model, AnyonLabel((4,), (0,)), path)
        with pytest.raises(ValueError, match="needs a direct path"):
            string_operator(model, AnyonLabel((0,), (0,)), path)

    @given(data=st.data(), which=st.integers(0, 2),
           start=st.tuples(st.integers(-3, 5), st.integers(-3, 5)),
           moves=st.lists(st.sampled_from("ENWS"), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_memo_equals_segment_product(self, memo_models, data, which,
                                         start, moves):
        model = memo_models[which]
        dims = model.lattice.edge_dims
        k = len(dims)
        entries = st.lists(st.integers(-40, 40), min_size=k, max_size=k)
        shifts = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
        lab = AnyonLabel(tuple(data.draw(entries)), tuple(data.draw(entries)))
        fs, cs = data.draw(shifts), data.draw(shifts)
        # same label mod the layer dimensions, unreduced differently
        twin = AnyonLabel(
            tuple(f + s * d for f, s, d in zip(lab.flux, fs, dims)),
            tuple(c + s * d for c, s, d in zip(lab.charge, cs, dims)))
        assume(twin.path_kind == lab.path_kind)
        path = PathSpec(lab.path_kind, start, tuple(moves))
        for label in (lab, twin, lab):
            assert string_operator(model, label, path) == \
                _uncached(model, label, path)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


class TestToricCodeBuilder:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_degeneracy(self, N):
        group, _ = build_zn_tc(N, 3, 3)
        assert not assert_commuting(group)
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == N * N

    def test_term_types(self):
        group, model = build_zn_tc(3, 2, 2)
        n = model.lattice.n_cells
        for g in group.generators[:n]:       # vertex terms: X only
            assert g.x and not g.z
        for g in group.generators[n:2 * n]:  # plaquette terms: Z only
            assert g.z and not g.x

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_zn_tc(0, 3, 3)


class TestTwistedBuilders:
    def test_ds_model(self):
        group, model = build_ds(3, 3)
        assert not assert_commuting(group)
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == 4
        assert model.phase_fix == (2,)
        assert model.lattice.edge_dims == (4,)

    @pytest.mark.parametrize("params,dim,fix", [
        (TqdParams([3], [1]), 9, (2,)),
        (TqdParams([4], [1]), 16, (2,)),
        (TqdParams([2, 2], [1, 1], {(0, 1): 1}), 16, (2, 2)),
        (TqdParams([2, 4], [1, 1], {(0, 1): 1}), 64, (8, 2)),
    ])
    def test_general_params(self, params, dim, fix):
        group, model = build_tqd(params, 3, 3)
        assert not assert_commuting(group)
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == dim
        assert model.phase_fix == fix

    def test_layer_dimensions_are_squares(self):
        _, model = build_tqd(TqdParams([2, 3], [0, 0]), 3, 3)
        assert model.lattice.edge_dims == (4, 9)

    def test_term_accessors_are_members(self):
        group, model = build_ds(3, 3)
        for term in (vertex_terms(model) + plaquette_terms(model)
                     + ds_edge_terms(model)):
            assert member_with_phase(group, term).is_member

    def test_term_counts(self):
        _, model = build_tqd(TqdParams([2, 2], [0, 0]), 3, 4)
        assert len(vertex_terms(model)) == 24
        assert len(plaquette_terms(model)) == 24
        assert len(ds_edge_terms(model)) == 48


class TestCondensation:
    def test_stack_group(self):
        stack = tc_stack_group(DS_PARAMS, 3, 3)
        assert not assert_commuting(stack)
        assert logical_dimension(stack) == 16  # plain Z4 toric code

    @pytest.mark.parametrize("params", [
        TqdParams([2], [1]),
        TqdParams([3], [1]),
        TqdParams([2, 2], [1, 1], {(0, 1): 1}),
    ])
    def test_measuring_edge_terms_gives_twisted_model(self, params):
        assert condensation_equal(params, 3, 3)

    def test_measured_group_order_matches(self):
        group, model = build_ds(3, 3)
        stack = tc_stack_group(DS_PARAMS, 3, 3)
        measured = measure(stack, ds_edge_terms(model))
        assert group_order(measured) == group_order(group)


class TestSptBuilders:
    @pytest.mark.parametrize("L", [3, 4])
    def test_unique_ground_state(self, L):
        group, _ = build_spt(L, L)
        assert not assert_commuting(group)
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == 1

    def test_global_flip_is_a_symmetry(self):
        group, model = build_spt(3, 3)
        t = model.lattice
        flip = PauliOperator(model.system, x={
            t.vertex_site(x, y): 1 for y in range(3) for x in range(3)})
        assert all(commutes(flip, g) for g in group.generators)

    def test_edge_term_kinds(self):
        _, model = build_spt(3, 3)
        for term in spt_edge_terms(model, "C"):
            assert term.x  # boson hop moves flux
        for term in spt_edge_terms(model, "D"):
            assert not term.x and term.z
        with pytest.raises(ValueError):
            spt_edge_terms(model, "Q")

    def test_hatted_model_degeneracy(self):
        group, _ = build_hatted_ds(3, 3)
        assert not assert_commuting(group)
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == 16

    def test_measuring_d_terms_recovers_spt(self):
        hat_group, hat_model = build_hatted_ds(3, 3)
        spt_group, _ = build_spt(3, 3)
        measured = measure(hat_group, spt_edge_terms(hat_model, "D"))
        assert groups_equal(measured, spt_group)


# ---------------------------------------------------------------------------
# Spec dispatch
# ---------------------------------------------------------------------------


class TestBuildFromSpec:
    def test_tc(self):
        group, model = build_from_spec({"type": "tc", "N": [3], "L": 3})
        assert model.kind == "tc" and model.tc_N == 3
        assert logical_dimension(group) == 9

    def test_ds_rectangular(self):
        _, model = build_from_spec({"type": "ds", "Lx": 3, "Ly": 4})
        assert (model.lattice.Lx, model.lattice.Ly) == (3, 4)

    def test_tqd(self):
        _, model = build_from_spec(
            {"type": "tqd", "N": [2, 2], "n": [0, 0],
             "nij": {(0, 1): 1}, "L": 3})
        assert model.kind == "tqd"
        assert model.params.nij[0][1] == 1

    def test_spt(self):
        _, model = build_from_spec({"type": "spt", "L": 3})
        assert model.kind == "spt"
        assert model.lattice.vertex_dims == (2,)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            build_from_spec({"type": "wibble"})
