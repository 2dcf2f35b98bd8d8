"""Tests for torus lattice models, string operators, and builders."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tqdstab.lattice import (AnyonLabel, DS_PARAMS, H, LatticeModel, PathSpec,
                             TorusLattice, TqdParams, V, build_ds,
                             build_from_spec, build_hatted_ds, build_spt,
                             build_tqd, build_zn_tc, condensation_equal,
                             direct_loop_around_plaquette, ds_edge_terms,
                             dual_loop_around_vertex, size_from_spec,
                             spt_d_terms, string_operator, tc_stack_group)
from tqdstab import lattice
from tqdstab.anyon import _tqd_generator_data
from tqdstab.exactmath import Rational01
from tqdstab.pauli import PauliOperator, multiply, scalar
from tqdstab.stabilizer import (InconsistentGroupError, assert_commuting,
                                group_order, groups_equal, logical_dimension,
                                measure, member_with_phase,
                                scalar_consistency)

from oracles import (commutes, phase_fix_system,
                     string_operator_by_segments, walk_least_solution)


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

    @pytest.mark.parametrize("key", [(0, 5), (0, 0), (-1, 1)])
    def test_rejects_bad_nij_key(self, key):
        with pytest.raises(ValueError, match=re.escape(f"nij key {key!r}")):
            TqdParams([2, 2], [1, 1], {key: 1})


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

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            TorusLattice(1, 3, (2,))

    def test_cell_of_and_shift(self):
        t = TorusLattice(3, 5, (4, 16), (2,))
        dims = t.system().dims
        index = {t.edge_site(x, y, o, layer): (x, y, ("edge", layer, o))
                 for layer in range(2) for y in range(5) for x in range(3)
                 for o in (H, V)}
        index.update({t.vertex_site(x, y): (x, y, ("vertex", 0))
                      for y in range(5) for x in range(3)})
        assert sorted(index) == list(range(t.system().n_sites))
        for site, (x, y, kind) in index.items():
            assert t.cell_of(site) == (x, y)
            assert t.shift(site, 3, 0) == t.shift(site, 0, 5) == site
            for dx, dy in ((1, 0), (0, 1), (2, 3), (-1, -4)):
                moved = t.shift(site, dx, dy)
                assert index[moved] == ((x + dx) % 3, (y + dy) % 5, kind)
                assert dims[moved] == dims[site]
                assert t.shift(moved, 1, 2) == t.shift(site, dx + 1, dy + 2)

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
        # string_operator's walk is the one closure check
        _, model = build_ds(3, 3)
        string_operator(model, "phi1", PathSpec(
            "dual", (0, 0), ("E", "N", "W", "S"), closed=True))
        with pytest.raises(ValueError, match="closed path"):
            string_operator(model, "phi1",
                            PathSpec("dual", (0, 0), ("E",), closed=True))

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
        seg = string_operator(model, "phi1", PathSpec("dual", (0, 0), ("E",)))
        assert dict(seg.x) == {t.edge_site(1, 0, V): 1}
        assert dict(seg.z) == {t.edge_site(1, 1, H): 1}

    def test_flux_segment_north(self):
        _, model = build_ds(3, 3)
        t = model.lattice
        seg = string_operator(model, "phi1", PathSpec("dual", (0, 0), ("N",)))
        assert dict(seg.x) == {t.edge_site(0, 1, H): 3}
        assert dict(seg.z) == {t.edge_site(1, 1, V): 1}

    def test_west_is_adjoint_of_east(self):
        from tqdstab.pauli import adjoint, multiply
        _, model = build_ds(3, 3)
        east = string_operator(model, "phi1", PathSpec("dual", (1, 1), ("E",)))
        west = string_operator(model, "phi1", PathSpec("dual", (2, 1), ("W",)))
        assert multiply(east, west).is_identity()

    def test_charge_segment_has_no_x(self):
        _, model = build_ds(3, 3)
        seg = string_operator(model, "c1", PathSpec("direct", (0, 0), ("E",)))
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


_MEMO_BUILDS = [
    build_ds,
    lambda Lx, Ly: build_zn_tc(4, Lx, Ly),
    lambda Lx, Ly: build_tqd(TqdParams([3], [1]), Lx, Ly),
    lambda Lx, Ly: build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}), Lx, Ly),
    lambda Lx, Ly: build_tqd(TqdParams([2, 4], [0, 1], {(0, 1): 1}), Lx, Ly),
    build_spt,
]
_MEMO_TORI = [(2, 2), (2, 3), (3, 3)]


@pytest.fixture(scope="module")
def memo_models():
    """Small models whose string memos persist across hypothesis examples,
    so later examples hit entries made by earlier ones: DS, Z4 toric code,
    N=[3] (odd d), twisted N=[2,2], mixed-order N=[2,4] and the SPT
    geometry (vertex layers), each on every torus of _MEMO_TORI."""
    return [build(*size)[1] for build in _MEMO_BUILDS for size in _MEMO_TORI]


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
            assert op_first == string_operator_by_segments(model, first, path)
            assert op_second == string_operator_by_segments(model, second,
                                                            path)
            assert op_first != op_second

    def test_path_kind_checked_on_a_cache_hit(self):
        # Flux 4 on the d=4 DS layer has the key of the trivial label, but
        # it is a dual-path label while the trivial label is direct.
        _, model = build_ds(3, 3)
        path = PathSpec("dual", (0, 0), ("E", "N"))
        string_operator(model, AnyonLabel((4,), (0,)), path)
        with pytest.raises(ValueError, match="needs a direct path"):
            string_operator(model, AnyonLabel((0,), (0,)), path)

    def test_unclosed_closed_path_is_not_stored(self):
        _, model = build_ds(3, 3)
        before = dict(model._strings)
        with pytest.raises(ValueError, match="return to its start"):
            string_operator(model, "s",
                            PathSpec("dual", (0, 0), ("E", "N"), closed=True))
        assert model._strings == before
        loop = PathSpec("dual", (0, 0), ("E", "N", "W", "S"), closed=True)
        assert string_operator(model, "s", loop) == \
            string_operator_by_segments(model, "s", loop)

    @given(data=st.data(),
           which=st.integers(0, len(_MEMO_BUILDS) * len(_MEMO_TORI) - 1),
           start=st.tuples(st.integers(-4, 6), st.integers(-4, 6)),
           moves=st.lists(st.sampled_from("ENWS"), max_size=6),
           closing=st.sampled_from(["open", "retrace", "wind"]))
    @settings(max_examples=300, deadline=None)
    def test_memo_equals_segment_product(self, memo_models, data, which,
                                         start, moves, closing):
        model = memo_models[which]
        dims = model.lattice.edge_dims
        k = len(dims)
        entries = st.lists(st.integers(-40, 40), min_size=k, max_size=k)
        shifts = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
        flux = (0,) * k if data.draw(st.booleans()) else data.draw(entries)
        lab = AnyonLabel(tuple(flux), tuple(data.draw(entries)))
        fs, cs = data.draw(shifts), data.draw(shifts)
        # same label mod the layer dimensions, unreduced differently
        twin = AnyonLabel(
            tuple(f + s * d for f, s, d in zip(lab.flux, fs, dims)),
            tuple(c + s * d for c, s, d in zip(lab.charge, cs, dims)))
        assume(twin.path_kind == lab.path_kind)
        inverse = {"E": "W", "W": "E", "N": "S", "S": "N"}
        if closing != "open":
            # back along the same edges, then around the torus if "wind"
            moves = moves + [inverse[m] for m in reversed(moves)]
        if closing == "wind":
            moves += ["E"] * model.lattice.Lx + ["S"] * model.lattice.Ly
        path = PathSpec(lab.path_kind, start, tuple(moves),
                        closed=closing != "open")
        for label in (lab, twin, lab):
            assert string_operator(model, label, path) == \
                string_operator_by_segments(model, label, path)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


class TestToricCodeBuilder:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_degeneracy(self, N):
        group, _ = build_zn_tc(N, 3, 3)
        assert not assert_commuting(group.system, group.generators)[0]
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
        assert not assert_commuting(group.system, group.generators)[0]
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
        assert not assert_commuting(group.system, group.generators)[0]
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == dim
        assert model.phase_fix == fix

    def test_layer_dimensions_are_squares(self):
        _, model = build_tqd(TqdParams([2, 3], [0, 0]), 3, 3)
        assert model.lattice.edge_dims == (4, 9)

    def test_term_accessors_are_members(self):
        group, model = build_ds(3, 3)
        for term in ds_edge_terms(model):
            assert member_with_phase(group, term).is_member

    @pytest.mark.parametrize("build", [
        lambda: build_ds(3, 3),
        lambda: build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}), 3, 3),
    ], ids=["ds", "twisted22"])
    def test_term_accessors_slice_the_group(self, build):
        # A, B, then the two blocks of C terms: the edge terms are the
        # second half of the generators
        group, model = build()
        half = len(group.generators) // 2
        assert ds_edge_terms(model) == list(group.generators[half:])

    def test_term_accessors_need_a_built_model(self):
        _, built = build_ds(3, 3)
        bare = LatticeModel("ds", built.lattice, params=DS_PARAMS)
        with pytest.raises(ValueError):
            ds_edge_terms(bare)
        _, spt = build_spt(3, 3)
        with pytest.raises(ValueError):
            ds_edge_terms(spt)

    def test_term_counts(self):
        _, model = build_tqd(TqdParams([2, 2], [0, 0]), 3, 4)
        assert len(ds_edge_terms(model)) == 48


class TestCondensation:
    def test_stack_group(self):
        stack = tc_stack_group(DS_PARAMS, 3, 3)
        assert not assert_commuting(stack.system, stack.generators)[0]
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
        assert not assert_commuting(group.system, group.generators)[0]
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == 1

    def test_global_flip_is_a_symmetry(self):
        group, model = build_spt(3, 3)
        t = model.lattice
        flip = PauliOperator(model.system, x={
            t.vertex_site(x, y): 1 for y in range(3) for x in range(3)})
        assert all(commutes(flip, g) for g in group.generators)

    def test_edge_term_kinds(self):
        group, model = build_spt(3, 3)
        n = model.lattice.n_cells
        c_terms = group.generators[n:3 * n]
        d_terms = spt_d_terms(model)
        assert list(group.generators[3 * n:]) == d_terms
        for term in c_terms:
            assert term.x  # boson hop moves flux
        for term in d_terms:
            assert not term.x and term.z

    def test_hatted_model_degeneracy(self):
        group, _ = build_hatted_ds(3, 3)
        assert not assert_commuting(group.system, group.generators)[0]
        assert scalar_consistency(group).consistent
        assert logical_dimension(group) == 16

    def test_measuring_d_terms_recovers_spt(self):
        hat_group, hat_model = build_hatted_ds(3, 3)
        spt_group, _ = build_spt(3, 3)
        measured = measure(hat_group, spt_d_terms(hat_model))
        assert groups_equal(measured, spt_group)

    @pytest.mark.parametrize("size", [(2, 2), (4, 3), (4, 4)], ids=str)
    def test_measuring_d_terms_recovers_spt_on_even_areas(self, size):
        # with the hatted vertex terms carrying theta(s) on every torus,
        # not only where the area is odd as at 3x3 above
        hat_group, hat_model = build_hatted_ds(*size)
        spt_group, _ = build_spt(*size)
        measured = measure(hat_group, spt_d_terms(hat_model))
        assert groups_equal(measured, spt_group)


# Vertex-term phases against the solve they replaced (tests/oracles.py):
# N in {2, 3, 4, 5, 9}, every two-factor pattern with N_i <= 4 and
# n_12 != 0, and three Z_2 factors with every n_ij = 1.
PHASE_MODELS = [
    TqdParams([2], [0]), TqdParams([2], [1]), TqdParams([3], [1]),
    TqdParams([3], [2]), TqdParams([4], [1]), TqdParams([4], [2]),
    TqdParams([4], [3]), TqdParams([5], [2]), TqdParams([9], [1]),
    TqdParams([9], [7]),
    TqdParams([2, 2], [1, 1], {(0, 1): 1}),
    TqdParams([2, 2], [0, 1], {(0, 1): 1}),
    TqdParams([2, 4], [1, 1], {(0, 1): 1}),
    TqdParams([2, 4], [0, 3], {(0, 1): 1}),
    TqdParams([3, 3], [1, 2], {(0, 1): 1}),
    TqdParams([3, 3], [0, 0], {(0, 1): 2}),
    TqdParams([4, 4], [1, 3], {(0, 1): 2}),
    TqdParams([4, 4], [2, 0], {(0, 1): 1}),
    TqdParams([4, 4], [3, 1], {(0, 1): 3}),
    TqdParams([2, 2, 2], [1, 1, 1], {(0, 1): 1, (0, 2): 1, (1, 2): 1}),
]


def _params_id(p):
    return f"N{list(p.N)}-n{list(p.n)}-nij{[list(r) for r in p.nij]}"


class TestVertexPhases:
    """Each layer's vertex terms carry theta(phi_i), the spin of their
    flux; that is the least solution of the system the builders solved
    before (oracles.phase_fix_system, oracles.walk_least_solution)."""

    @pytest.mark.parametrize("size", [(3, 3), (4, 3)], ids=str)
    @pytest.mark.parametrize("params", PHASE_MODELS, ids=_params_id)
    def test_tqd_phase_is_the_flux_spin_and_the_least_solution(
            self, params, size):
        group, model = build_tqd(params, *size)
        two_d = 2 * model.system.D
        spins = _tqd_generator_data(params)[0][params.M:]
        assert [Rational01(m, two_d) for m in model.phase_fix] == spins
        assert list(model.phase_fix) == walk_least_solution(
            *phase_fix_system(group, model))

    @pytest.mark.parametrize("size", [(3, 3), (4, 4)], ids=str)
    def test_spt_phase_is_the_least_solution(self, size):
        group, model = build_spt(*size)
        assert model.phase_fix == (2,)
        assert walk_least_solution(*phase_fix_system(group, model)) == [2]

    @pytest.mark.parametrize("size", [(3, 3), (5, 3), (4, 3), (4, 4)],
                             ids=str)
    def test_hatted_ds_phase_solves_the_system(self, size):
        # every phase that solves the system makes a consistent group; the
        # least one is theta(s) only on odd areas (0 on even ones)
        group, model = build_hatted_ds(*size)
        assert model.phase_fix == (2,)
        (column,), rhs, moduli = phase_fix_system(group, model)
        assert all((2 * c - r) % mod == 0
                   for c, r, mod in zip(column, rhs, moduli))
        least = walk_least_solution([column], rhs, moduli)
        assert (least == [2]) == (size[0] * size[1] % 2 == 1)

    def test_inconsistent_phases_raise_where_the_group_is_made(self):
        # vertex terms carrying theta(s) twice: the product of the vertex
        # terms is then a nontrivial scalar
        group, model = build_ds(3, 3)
        twice = _phase_fixed(model, list(group.generators))
        with pytest.raises(InconsistentGroupError, match="scalar"):
            lattice._with_phase_fix(model, twice)


# ---------------------------------------------------------------------------
# Spec dispatch
# ---------------------------------------------------------------------------


def _oracle_terms(model, flux_labels, charge_labels, edge_labels=()):
    """A builder's vertex loops, plaquette loops and unbound edge hops, in
    builder order and before any phase fix, from
    string_operator_by_segments."""
    lat = model.lattice
    cells = [(x, y) for y in range(lat.Ly) for x in range(lat.Lx)]
    terms = [string_operator_by_segments(model, lab,
                                         dual_loop_around_vertex(x, y))
             for lab in flux_labels for x, y in cells]
    terms += [string_operator_by_segments(model, lab,
                                          direct_loop_around_plaquette(x, y))
              for lab in charge_labels for x, y in cells]
    for lab in edge_labels:
        for x, y in cells:
            for cell, move in (((x - 1, y), "E"), ((x, y - 1), "N")):
                terms.append(string_operator_by_segments(
                    model, lab, PathSpec("dual", cell, (move,)), bound=False))
    return terms


def _phase_fixed(model, terms):
    """terms with each layer's vertex terms times its phase_fix scalar."""
    n = model.lattice.n_cells
    return [multiply(scalar(model.system, model.phase_fix[k // n]), t)
            if k < n * len(model.phase_fix) else t
            for k, t in enumerate(terms)]


class TestBuildersFromOracleStrings:
    """Every builder's generators, phase fix included, equal the terms
    assembled from strings built segment by segment, on square and
    rectangular tori (a tiler that swapped Lx and Ly would fail)."""

    SIZES = [(2, 2), (3, 3), (2, 3), (3, 2), (3, 5)]

    @pytest.mark.parametrize("size", SIZES, ids=str)
    @pytest.mark.parametrize("N", [2, 4])
    def test_toric_code(self, N, size):
        group, model = build_zn_tc(N, *size)
        terms = _oracle_terms(model, [model.labels["m"]], [model.labels["e"]])
        assert list(group.generators) == terms

    @pytest.mark.parametrize("size", SIZES, ids=str)
    @pytest.mark.parametrize("params", [
        DS_PARAMS,
        TqdParams([3], [1]),
        TqdParams([2, 2], [1, 1], {(0, 1): 1}),
        TqdParams([2, 4], [0, 1], {(0, 1): 1}),
    ])
    def test_tqd_and_ds(self, params, size):
        builds = [build_tqd(params, *size)]
        if params == DS_PARAMS:
            builds.append(build_ds(*size))
        for group, model in builds:
            def labels(prefix):
                return [model.labels[f"{prefix}{i + 1}"]
                        for i in range(params.M)]
            terms = _oracle_terms(model, labels("phi"), labels("c"),
                                  labels("b"))
            assert list(group.generators) == _phase_fixed(model, terms)

    @pytest.mark.parametrize("size", SIZES, ids=str)
    def test_tc_stack(self, size):
        params = TqdParams([2, 4], [0, 1], {(0, 1): 1})
        model = LatticeModel("tc", TorusLattice(*size, (4, 16)))
        units = [(1, 0), (0, 1)]
        terms = _oracle_terms(model,
                              [AnyonLabel(u, (0, 0)) for u in units],
                              [AnyonLabel((0, 0), u) for u in units])
        assert list(tc_stack_group(params, *size).generators) == terms

    @pytest.mark.parametrize("size", SIZES, ids=str)
    def test_spt_and_hatted(self, size):
        b1 = build_ds(*size)[1].labels["b1"]
        for build in (build_spt, build_hatted_ds):
            group, model = build(*size)
            t = model.lattice
            terms = _oracle_terms(model, [model.labels["s"]], [], [b1])
            flips = [PauliOperator(model.system, x={t.vertex_site(x, y): 1})
                     for y in range(t.Ly) for x in range(t.Lx)]
            if build is build_spt:
                terms = [multiply(g, f) for g, f in zip(terms, flips)] \
                    + terms[len(flips):] + spt_d_terms(model)
            else:
                terms += flips
            assert list(group.generators) == _phase_fixed(model, terms)


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

    def test_type_defaults_from_N(self):
        assert build_from_spec({"L": 3})[1].kind == "ds"
        assert build_from_spec({"N": [3], "L": 3})[1].kind == "tqd"

    def test_size_defaults(self):
        assert size_from_spec({}) == (3, 3)
        assert size_from_spec({"Lx": 4}) == (4, 4)
        assert size_from_spec({"L": 5, "Ly": 2}) == (5, 2)
        assert size_from_spec({"Lx": 4}, 3, 3) == (4, 3)
        assert size_from_spec({}, 7, 6) == (7, 6)
        assert size_from_spec({"L": 4}, 7, 6) == (4, 4)
