"""Tests for anyon-statistics extraction and the SPT boundary cocycle."""

import random
import re
from collections import Counter
from itertools import combinations_with_replacement
from itertools import product as iproduct

import pytest

from oracles import (extraction_tables_by_all_pairs,
                     extraction_tables_by_box_walk,
                     junction_exponent_by_products, logical_algebra)
from tqdstab import cli, extraction
from tqdstab.anyon import (RelationError, TheoryCheckError,
                           theories_isomorphic, topological_spins_census,
                           tqd_theory, zn_tc_theory)
from tqdstab.exactmath import Rational01
from tqdstab.extraction import (ConfinedLabelError,
                                InconsistentExtractionError, JunctionSpec,
                                cocycle_is_valid, crossing_braiding,
                                default_junction, extract_theory,
                                extraction_report, fusion_order,
                                generating_labels, model_group,
                                spt_cocycle, spt_report, t_junction_theta)
from tqdstab.lattice import (DS_PARAMS, AnyonLabel, LatticeModel, PathSpec,
                             TqdParams, build_ds, build_from_spec,
                             build_hatted_ds, build_spt, build_tqd,
                             build_zn_tc, string_operator)
from tqdstab.pauli import PauliOperator, QuditSystem, multiply

R = Rational01

JUNCTIONS = [
    default_junction((0, 0)),
    default_junction((1, 1)),
    JunctionSpec((0, 0), (("E",), ("N",), ("W",))),
]


TWISTED_22 = TqdParams([2, 2], [1, 1], {(0, 1): 1})

# Models for the all-pairs oracle.
ORACLE_BUILDS = {
    "ds": lambda: build_ds(3, 3),
    "z4-tc": lambda: build_zn_tc(4, 3, 3),
    "tqd4-twisted": lambda: build_tqd(TqdParams([4], [3]), 3, 3),
    "tqd22": lambda: build_tqd(TqdParams([2, 2], [0, 0]), 3, 3),
    "tqd22-twisted": lambda: build_tqd(TWISTED_22, 3, 3),
    "tqd24-twisted": lambda: build_tqd(
        TqdParams([2, 4], [1, 1], {(0, 1): 1}), 3, 3),
}

# (builder, matching `anyons extract` arguments) for the mutants.
MUTANT_MODELS = {
    "ds": (lambda: build_ds(3, 3), ["--type", "ds", "--L", "3"]),
    "tqd22-twisted": (lambda: build_tqd(TWISTED_22, 3, 3),
                      ["--type", "tqd", "--N", "2,2", "--n", "1,1",
                       "--nij", "0,1,1", "--L", "3"]),
}


# A fixed census subset at L=3 for the box-walk oracle: every one-factor N
# up to 9 and every two-factor pattern over {2, 3, 4}, with type-II twists.
CENSUS_SUBSET = [
    ([2], [1], None), ([2], [0], None), ([3], [1], None), ([4], [1], None),
    ([4], [0], None), ([5], [2], None), ([7], [3], None), ([8], [2], None),
    ([9], [3], None),
    ([2, 2], [1, 1], {(0, 1): 1}), ([2, 2], [0, 0], {(0, 1): 1}),
    ([2, 3], [1, 2], None), ([2, 4], [1, 3], {(0, 1): 1}),
    ([2, 4], [0, 0], None), ([3, 3], [1, 2], {(0, 1): 2}),
    ([3, 3], [0, 0], {(0, 1): 1}), ([3, 4], [2, 1], None),
    ([4, 4], [1, 3], {(0, 1): 2}), ([4, 4], [0, 2], {(0, 1): 3}),
    ([4, 4], [2, 0], {(0, 1): 1}),
]


def generator_pair_sums(gens) -> set:
    """The labels e_g + e_h, g <= h, over the generator labels."""
    return {a.combine(b) for a, b in combinations_with_replacement(gens, 2)}


@pytest.fixture(scope="module", params=list(ORACLE_BUILDS))
def oracle_model(request):
    return ORACLE_BUILDS[request.param]()[1]


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

    def test_fusion_order_rule(self):
        # least n with n^2 theta = 0 mod 2D and n row = 0 mod D (D = 4)
        assert extraction._fusion_order(2, [2, 0], 4) == 2
        assert extraction._fusion_order(1, [1], 4) == 4
        assert extraction._fusion_order(0, [0, 0], 4) == 1
        # a transparent fermion: only theta needs n = 2
        assert extraction._fusion_order(4, [0, 0], 4) == 2

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
        assert theories_isomorphic(ext.theory, tqd_theory(DS_PARAMS))

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
                rhs = (t_junction_theta(ds_model, ext.combine(s))
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

    @pytest.mark.parametrize("build", [
        lambda: build_ds(3, 3),
        lambda: build_zn_tc(4, 3, 3),
        lambda: build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}), 3, 3),
        # mixed orders: the flux-bound charge tells strings apart
        lambda: build_tqd(TqdParams([2, 4], [1, 1], {(0, 1): 1}), 3, 3),
    ], ids=["ds", "z4-tc", "tqd22-twisted", "tqd24-twisted"])
    def test_tables_match_public_measurements(self, build):
        _, model = build()
        ext = extract_theory(model)
        box = ext.box()
        for v in box:
            assert ext.theta[v] == t_junction_theta(model, ext.combine(v))
        # Every pair up to 16 vectors; on the 512-vector N=[2,4] box each
        # row is checked on 16 columns, with offsets covering every column.
        stride = max(1, len(box) // 16)
        for i, v1 in enumerate(box):
            for v2 in box[i % stride::stride]:
                assert ext.braiding[(v1, v2)] == crossing_braiding(
                    model, ext.combine(v1), ext.combine(v2))

    @pytest.mark.parametrize("build", [
        lambda: build_ds(3, 3),
        lambda: build_zn_tc(4, 3, 3),
        lambda: build_tqd(TqdParams([4], [3]), 3, 3),
        lambda: build_tqd(TqdParams([2, 4], [1, 1], {(0, 1): 1}), 3, 3),
    ], ids=["ds", "z4-tc", "tqd4-twisted", "tqd24-twisted"])
    def test_theta_matches_product_oracle(self, build):
        # theta from three commutation exponents equals the phase between
        # the two explicit T-junction products.
        _, model = build()
        gens = tuple(generating_labels(model).values())
        for junction in JUNCTIONS:
            for vec in iproduct(range(3), repeat=len(gens)):
                lab = extraction._combine(gens, vec)
                strings = [string_operator(model, lab, p)
                           for p in junction.paths(lab.path_kind)]
                assert t_junction_theta(model, lab, junction) == R(
                    junction_exponent_by_products(*strings),
                    2 * model.system.D)

    @pytest.mark.parametrize("dims", [[2, 2], [4], [2, 4, 3], [9, 3]])
    def test_junction_exponent_on_random_operators(self, dims):
        # On the lattices above two of the three commutation terms vanish;
        # random operators exercise all three.
        rng = random.Random(11)
        system = QuditSystem(dims)
        for _ in range(200):
            ops = [PauliOperator(
                system, phase=rng.randrange(2 * system.D),
                x={s: rng.randrange(d) for s, d in enumerate(dims)},
                z={s: rng.randrange(d) for s, d in enumerate(dims)})
                for _ in range(3)]
            assert extraction._junction_exponent(*ops) == \
                junction_exponent_by_products(*ops)

    def test_each_loop_built_once_and_junction_validated_once(
            self, monkeypatch):
        _, model = build_tqd(TqdParams([2, 2], [1, 1], {(0, 1): 1}), 3, 3)
        calls = Counter()
        validations = []
        original_string = extraction.string_operator
        original_validate = JunctionSpec.validate

        def counting_string(model, label, path):
            calls[(model.label(label), path)] += 1
            return original_string(model, label, path)

        def counting_validate(junction, model):
            validations.append(junction)
            return original_validate(junction, model)

        monkeypatch.setattr(extraction, "string_operator", counting_string)
        monkeypatch.setattr(JunctionSpec, "validate", counting_validate)
        ext = extract_theory(model)
        assert len(validations) == 1
        assert max(calls.values()) == 1
        # the generators and their pair sums, each on three junction arms
        # and two loops: no box vector beyond them
        gens = ext.generator_labels
        k = len(gens)
        pairs = generator_pair_sums(gens)
        assert len(pairs) == k * (k + 1) // 2
        assert {lab for lab, _ in calls} == set(gens) | pairs
        assert len(calls) == 5 * (k + len(pairs))
        L = model.lattice.Lx
        for lab in pairs:
            for moves in (("E",) * L, ("N",) * L):
                path = PathSpec(lab.path_kind, (0, 0), moves, closed=True)
                assert calls[(lab, path)] == 1

    def test_confined_generator_is_rejected(self, monkeypatch, ds_model):
        # One sweep checks every generator loop; the error names the first
        # confined label in generator order.
        bad, worse = AnyonLabel((0,), (1,)), AnyonLabel((1,), (0,))
        labels = {"s": ds_model.label("s"), "bad": bad, "worse": worse}
        monkeypatch.setattr(extraction, "generating_labels",
                            lambda model: labels)
        with pytest.raises(ConfinedLabelError,
                           match=re.escape(f"label {bad} is confined")):
            extract_theory(ds_model)

    def test_corrupted_braiding_is_inconsistent(self, monkeypatch, capsys):
        # Negative control: shift one measured braiding exponent, B(s, s).
        _, model = build_ds(3, 3)
        s = model.label("s")
        loops = [string_operator(model, s, PathSpec(s.path_kind, (0, 0),
                                                    (move,) * 3, closed=True))
                 for move in ("E", "N")]
        D = model.system.D
        original = extraction._braid_exponent

        def corrupted(horizontal, vertical):
            e = original(horizontal, vertical)
            return (e + 1) % D if [horizontal, vertical] == loops else e

        monkeypatch.setattr(extraction, "_braid_exponent", corrupted)
        with pytest.raises(InconsistentExtractionError):
            extract_theory(model)
        assert cli.run(["anyons", "extract", "--type", "ds", "--L", "3"]) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_relation_failure_exits_one(self, monkeypatch, capsys):
        # A presentation whose relations are not bosons is a failed check.
        assert issubclass(RelationError, TheoryCheckError)
        original = extraction.anyon.theory_from_presentation

        def fermionic_relations(q_gen, b_gen, relations):
            # q = 1/8 with b_ii = 1/4 passes the table check, and makes
            # o_g e_g a fermion for the order-2 generators.
            return original(
                [R(1, 8)] * len(q_gen),
                [[R(1, 4) if i == j else v for j, v in enumerate(row)]
                 for i, row in enumerate(b_gen)], relations)

        monkeypatch.setattr(extraction.anyon, "theory_from_presentation",
                            fermionic_relations)
        assert cli.run(["anyons", "extract", "--type", "ds", "--L", "3"]) == 1
        assert "is not a boson" in capsys.readouterr().err

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


class TestBilinearExtraction:
    """extract_theory fills the braiding table from the k x k generator
    crossings, certified by the linearity of every box loop."""

    @pytest.mark.parametrize("center", [(0, 0), (1, 2)])
    def test_matches_all_pairs_oracle(self, oracle_model, center):
        junction = default_junction(center)
        ext = extract_theory(oracle_model, junction)
        ref = extraction_tables_by_all_pairs(oracle_model, junction)
        assert ext.fusion_orders == ref.fusion_orders
        assert ext.theta == ref.theta
        assert ext.braiding == ref.braiding
        assert theories_isomorphic(ext.theory, ref.theory)
        # the row lookup has the dict's keys, in the same order
        box = ext.box()
        assert list(ext.braiding) == list(ref.braiding)
        assert len(ext.braiding) == len(box) ** 2
        v = box[-1]
        for g, order in enumerate(ext.fusion_orders):
            past = v[:g] + (order,) + v[g + 1:]
            for key in ((past, v), (v, past)):
                assert key not in ext.braiding
                with pytest.raises(KeyError):
                    ext.braiding[key]
        for key in ((v + (0,), v), (v, v[:-1])):
            with pytest.raises(KeyError):
                ext.braiding[key]

    def test_box_4096(self):
        # N=[4,4] n=[2,0] n_12=1: fusion orders (16, 16, 4, 4)
        p = TqdParams([4, 4], [2, 0], {(0, 1): 1})
        _, model = build_tqd(p, 3, 3)
        ext = extract_theory(model)
        box = ext.box()
        assert len(box) == 4096
        assert theories_isomorphic(ext.theory, tqd_theory(p))
        for i in range(64):
            v, w = box[i * 61 % 4096], box[i * 997 % 4096]
            assert ext.braiding[(v, w)] == crossing_braiding(
                model, ext.combine(v), ext.combine(w))

    def test_report_rows_equal_the_table(self, oracle_model):
        # extraction_report writes each braiding row from the stored r_v
        ext = extract_theory(oracle_model)
        box = ext.box()
        assert extraction_report(oracle_model)["braiding"] == [
            [str(ext.braiding[(v1, v2)]) for v2 in box] for v1 in box]

    def test_report_size_bound_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(extraction, "REPORT_MAX_BOX", 16)
        assert cli.run(["anyons", "extract", "--type", "tqd", "--N", "2,2",
                        "--n", "1,1", "--nij", "0,1,1"]) == 2
        assert ("the box holds 64 vectors, above the report bound of 16"
                in capsys.readouterr().err)
        assert cli.run(["anyons", "extract", "--type", "ds"]) == 0

    def test_report_refused_before_the_box_is_measured(self, monkeypatch):
        walked = set()
        original = extraction.string_operator

        def recording(model, label, path):
            walked.add(model.label(label))
            return original(model, label, path)

        def box_measured(*args):
            pytest.fail("a refused report measured the box")

        monkeypatch.setattr(extraction, "string_operator", recording)
        monkeypatch.setattr(extraction, "_extract", box_measured)
        monkeypatch.setattr(extraction, "REPORT_MAX_BOX", 16)
        _, model = build_tqd(TWISTED_22, 3, 3)
        with pytest.raises(ValueError, match="the box holds 64 vectors"):
            extraction_report(model)
        gens = tuple(generating_labels(model).values())
        assert walked
        assert walked <= set(gens) | generator_pair_sums(gens)

    @staticmethod
    def _tables(ext):
        return (ext.fusion_orders, ext.theta, ext.braiding.rows, ext.theory)

    def _check_loop_mutant(self, monkeypatch, capsys, name, move, vec_of):
        # Mutant: one extra X on one site of the loop of vec_of(k), k the
        # number of generators.
        build, argv = MUTANT_MODELS[name]
        _, model = build()
        clean = extract_theory(model)
        vec = vec_of(len(clean.generator_labels))
        target = clean.combine(vec)
        original = extraction.string_operator

        def mutant(model, label, path):
            op = original(model, label, path)
            if (model.label(label) == target and path.closed
                    and path.moves[0] == move):
                op = multiply(op, PauliOperator(op.system, x={0: 1}))
            return op

        monkeypatch.setattr(extraction, "string_operator", mutant)
        # the box walk certifies the loop of every box vector
        with pytest.raises(InconsistentExtractionError, match="not linear"):
            extraction_tables_by_box_walk(model)
        if sum(vec) == 2:
            # a pair sum: the certificate walks it
            with pytest.raises(InconsistentExtractionError,
                               match="not linear"):
                extract_theory(model)
            assert cli.run(["anyons", "extract", *argv]) == 1
            assert "verification failed" in capsys.readouterr().err
        else:
            # never walked, so never read: the tables are the clean ones
            assert self._tables(extract_theory(model)) == self._tables(clean)

    @pytest.mark.parametrize("move", ["E", "N"],
                             ids=["horizontal", "vertical"])
    @pytest.mark.parametrize("name", list(MUTANT_MODELS))
    def test_nonlinear_loop_is_inconsistent(self, monkeypatch, capsys,
                                            name, move):
        # Every generator once: DS's (1, 1) is the pair sum e_0 + e_1, and
        # twisted N=[2,2]'s (1, 1, 1, 1) is read by the box walk only.
        self._check_loop_mutant(monkeypatch, capsys, name, move,
                                lambda k: (1,) * k)

    @pytest.mark.parametrize("move", ["E", "N"],
                             ids=["horizontal", "vertical"])
    @pytest.mark.parametrize("name", list(MUTANT_MODELS))
    def test_nonlinear_pair_sum_loop_is_inconsistent(self, monkeypatch,
                                                     capsys, name, move):
        self._check_loop_mutant(monkeypatch, capsys, name, move,
                                lambda k: (1, 1) + (0,) * (k - 2))

    @pytest.mark.parametrize("arm", range(3))
    def test_nonlinear_arm_is_inconsistent(self, monkeypatch, arm):
        # Mutant: one extra X on one junction arm of the pair sum e_0 + e_1.
        _, model = build_tqd(TWISTED_22, 3, 3)
        gens = tuple(generating_labels(model).values())
        target = gens[0].combine(gens[1])
        mutated = default_junction().paths(target.path_kind)[arm]
        original = extraction.string_operator

        def mutant(model, label, path):
            op = original(model, label, path)
            if model.label(label) == target and path == mutated:
                op = multiply(op, PauliOperator(op.system, x={0: 1}))
            return op

        monkeypatch.setattr(extraction, "string_operator", mutant)
        with pytest.raises(InconsistentExtractionError, match="not linear"):
            extract_theory(model)

    @pytest.mark.parametrize("name", list(MUTANT_MODELS))
    def test_corrupted_junction_is_inconsistent(self, monkeypatch, capsys,
                                                name):
        # Mutant: the junction cross term C[0][1] of the first two
        # generators' arms, shifted by one.
        build, argv = MUTANT_MODELS[name]
        _, model = build()
        first, second = [
            tuple(string_operator(model, g, p)
                  for p in default_junction().paths(g.path_kind))
            for g in tuple(generating_labels(model).values())[:2]]
        D = model.system.D
        original = extraction._cross_exponent

        def corrupted(a, b):
            e = original(a, b)
            return (e + 1) % D if (tuple(a), tuple(b)) == (first, second) \
                else e

        monkeypatch.setattr(extraction, "_cross_exponent", corrupted)
        with pytest.raises(InconsistentExtractionError, match="theta ratio"):
            extract_theory(model)
        assert cli.run(["anyons", "extract", *argv]) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_measurement_counts(self, monkeypatch):
        # k^2 crossings and k^2 junction cross terms, whatever the box:
        # the same counts on boxes of 64 and 512 vectors (k = 4).
        calls = Counter()
        for name in ("_braid_exponent", "_junction_exponent",
                     "_cross_exponent"):
            original = getattr(extraction, name)

            def counting(*ops, _name=name, _original=original):
                calls[_name] += 1
                return _original(*ops)

            monkeypatch.setattr(extraction, name, counting)
        counts = []
        for p in (TWISTED_22, TqdParams([2, 4], [1, 1], {(0, 1): 1})):
            calls.clear()
            ext = extract_theory(build_tqd(p, 3, 3)[1])
            k = len(ext.generator_names)
            assert calls["_braid_exponent"] <= k * k + k
            assert (calls["_cross_exponent"]
                    + calls["_junction_exponent"]) <= k * k + k
            counts.append((len(ext.box()), dict(calls)))
        assert [size for size, _ in counts] == [64, 512]
        assert counts[0][1] == counts[1][1]


class TestBoxWalkOracle:
    """extract_theory's generator tables against the walk of every box
    vector's strings (tests/oracles.py)."""

    @staticmethod
    def _check(model, junction=None):
        ext = extract_theory(model, junction)
        ref = extraction_tables_by_box_walk(model, junction)
        assert ext.fusion_orders == ref.fusion_orders
        assert ext.theta == ref.theta
        assert ext.braiding.rows == ref.braiding.rows
        assert ext.theory == ref.theory

    @pytest.mark.parametrize("N, n, nij", CENSUS_SUBSET,
                             ids=lambda v: str(v).replace(" ", ""))
    def test_census_subset(self, N, n, nij):
        self._check(build_tqd(TqdParams(N, n, nij), 3, 3)[1])

    def test_rectangular_torus_off_centre_junction(self):
        p = TqdParams([2, 4], [1, 1], {(0, 1): 1})
        self._check(build_tqd(p, 4, 3)[1], default_junction((1, 2)))


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

    def test_hatted_model_rejected(self):
        # the hatted DS shares the SPT geometry but is not the SPT model
        _, hatted = build_hatted_ds(7, 6)
        assert hatted.kind == "hatted-ds"
        with pytest.raises(ValueError, match="SPT model"):
            spt_cocycle(hatted, 4)

    def test_trivial_cocycle_passes_validity(self):
        from itertools import product
        table = {key: R(0) for key in product(range(2), repeat=3)}
        assert cocycle_is_valid(table)
        table[(1, 1, 0)] = R(1, 4)
        assert not cocycle_is_valid(table)
