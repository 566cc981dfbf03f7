import math

import pytest
from hypothesis import given, strategies as st

from carsopt.fitness import (
    FAILED_GA_OBJECTIVE,
    RHO_SCALAR,
    NormalizationConstants,
    boundary_penalty,
    canberra_sqrt,
    evaluate_breakdown,
    is_valid,
    objective_fitness,
)
from carsopt.problem import BoundaryDef, ObjectiveDef, ParameterDef, ProblemSpec


class TestCanberraSqrt:
    def test_identity(self):
        assert canberra_sqrt(2300.0, 2300.0) == 0.0

    def test_worked_value(self):
        assert canberra_sqrt(2400.0, 2300.0) == pytest.approx(math.sqrt(100 / 4700), rel=1e-12)
        assert canberra_sqrt(2400.0, 2300.0) == pytest.approx(0.14587, abs=1e-5)

    def test_zero_zero_convention(self):
        assert canberra_sqrt(0.0, 0.0) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_sqrt_dominates_argument(self, v, t):
        # sqrt(x) >= x on [0, 1], so the penalty exceeds the plain ratio.
        if v == 0 and t == 0:
            return
        ratio = abs(v - t) / (abs(v) + abs(t))
        assert canberra_sqrt(v, t) >= ratio - 1e-15

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_nonnegative_and_zero_iff_equal(self, v, t):
        d = canberra_sqrt(v, t)
        assert d >= 0.0
        assert (d == 0.0) == (v == t)


class TestBoundaryPenalty:
    def test_inside_range(self):
        b = BoundaryDef("vmean", "range", ((11.5, 12.5),))
        assert boundary_penalty(b, {"vmean": [12.0]}, 1, rho=100.0) == 0.0

    def test_target_worked_value(self):
        b = BoundaryDef("p", "target", (2300.0,))
        assert boundary_penalty(b, {"p": [2400.0]}, 1, rho=100.0) == pytest.approx(14.587, abs=1e-3)

    def test_range_nearest_bound(self):
        b = BoundaryDef("p", "range", ((2600.0, 2700.0),))
        pen = boundary_penalty(b, {"p": [2300.0]}, 1, rho=100.0)
        assert pen == pytest.approx(100 * math.sqrt(300 / 4900), rel=1e-12)
        assert pen == pytest.approx(24.74, abs=1e-2)

    def test_larger_satisfied(self):
        b = BoundaryDef("i", "larger", (0.0,))
        assert boundary_penalty(b, {"i": [1.0]}, 1, rho=100.0) == 0.0

    def test_per_op_mean(self):
        b = BoundaryDef("p", "target", (2300.0, 2300.0))
        meas = {"p": [2300.0, 2400.0]}
        spec_pen = 100 * canberra_sqrt(2400.0, 2300.0) / 2
        assert boundary_penalty(b, meas, 2, rho=100.0) == pytest.approx(spec_pen)

    @given(st.floats(-1e4, 1e4))
    def test_nonnegative(self, v):
        b = BoundaryDef("m", "range", ((0.0, 10.0),))
        assert boundary_penalty(b, {"m": [v]}, 1, rho=100.0) >= 0.0


class TestObjectiveFitness:
    def test_min_range(self):
        o = ObjectiveDef("fsw", "min_range")
        assert objective_fitness(o, {"fsw": [250e3, 300e3, 280e3]}, 3) == pytest.approx(-50e3)

    def test_target_exact(self):
        o = ObjectiveDef("vmean", "target", target_values=(12.0,))
        assert objective_fitness(o, {"vmean": [12.0]}, 1) == 0.0

    def test_max_mean_over_ops(self):
        o = ObjectiveDef("eta", "max")
        assert objective_fitness(o, {"eta": [0.9, 0.8]}, 2) == pytest.approx(0.85)

    def test_min_negates(self):
        o = ObjectiveDef("i", "min")
        assert objective_fitness(o, {"i": [2.0, 4.0]}, 2) == pytest.approx(-3.0)


class TestNormalize:
    def test_worked_value(self):
        assert NormalizationConstants.normalize(10.0, (-5.0, 15.0)) == pytest.approx(0.75)

    def test_endpoints(self):
        assert NormalizationConstants.normalize(-5.0, (-5.0, 15.0)) == 0.0
        assert NormalizationConstants.normalize(15.0, (-5.0, 15.0)) == 1.0

    def test_degenerate(self):
        assert NormalizationConstants.normalize(3.0, (2.0, 2.0)) == 0.5

    def test_can_exceed_unit_interval(self):
        assert NormalizationConstants.normalize(25.0, (-5.0, 15.0)) > 1.0

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_monotone(self, a, b):
        # Strict ordering only for gaps that survive float rounding.
        lo_hi = (-5.0, 15.0)
        if a < b:
            na = NormalizationConstants.normalize(a, lo_hi)
            nb = NormalizationConstants.normalize(b, lo_hi)
            assert na <= nb
            if b - a > 1e-9:
                assert na < nb


def two_obj_spec():
    return ProblemSpec(
        parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
        objectives=(ObjectiveDef("a", "max"), ObjectiveDef("b", "max")),
        boundaries=(BoundaryDef("c", "range", ((0.0, 10.0),)),),
    )


class TestAggregate:
    def test_scalar_mean_of_objectives(self):
        consts = NormalizationConstants(
            objective={"obj0:a": (0.0, 1.0), "obj1:b": (0.0, 1.0)},
            boundary={"bnd0:c": (0.0, 1.0)},
            scalar=None,
        )
        bd = evaluate_breakdown(two_obj_spec(), {"a": [0.6], "b": [0.8], "c": [5.0]})
        assert bd.pre_scalar(consts) == pytest.approx(0.7)

    def test_scalar_subtracts_penalty_mean(self):
        spec = ProblemSpec(
            parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
            objectives=(ObjectiveDef("a", "max"),),
            boundaries=(BoundaryDef("c", "range", ((0.0, 10.0),)),),
        )
        consts = NormalizationConstants(
            objective={"obj0:a": (0.0, 1.0)},
            boundary={"bnd0:c": (0.0, 1.0)},
        )
        bd = evaluate_breakdown(spec, {"a": [0.5], "c": [5.0]})
        bd.penalty_raw = [0.2]
        assert bd.pre_scalar(consts) == pytest.approx(0.3)

    def test_ga_vector_unchanged_when_valid(self):
        bd = evaluate_breakdown(two_obj_spec(), {"a": [0.6], "b": [0.8], "c": [5.0]})
        assert bd.ga_vector() == pytest.approx([0.6, 0.8])

    def test_ga_vector_penalized(self):
        bd = evaluate_breakdown(two_obj_spec(), {"a": [0.6], "b": [0.8], "c": [11.0]})
        pen = 10_000 * canberra_sqrt(11.0, 10.0)
        assert bd.ga_vector() == pytest.approx([0.6 - pen, 0.8 - pen])

    def test_failed_sample(self):
        bd = evaluate_breakdown(two_obj_spec(), {"a": [float("nan")], "b": [0.8], "c": [5.0]})
        assert bd.failed and not bd.valid
        consts = NormalizationConstants(scalar=(0.0, 1.0))
        assert bd.scalar(consts) == 0.0
        assert bd.ga_vector() == [FAILED_GA_OBJECTIVE, FAILED_GA_OBJECTIVE]

    def test_order_invariance(self):
        spec = two_obj_spec()
        meas = {"a": [0.3], "b": [0.9], "c": [12.0]}
        swapped = ProblemSpec(
            parameters=spec.parameters,
            objectives=(spec.objectives[1], spec.objectives[0]),
            boundaries=spec.boundaries,
        )
        c1 = NormalizationConstants.from_first_batch(spec, [evaluate_breakdown(spec, meas)])
        c2 = NormalizationConstants.from_first_batch(swapped, [evaluate_breakdown(swapped, meas)])
        s1 = evaluate_breakdown(spec, meas).scalar(c1)
        s2 = evaluate_breakdown(swapped, meas).scalar(c2)
        assert s1 == pytest.approx(s2)


class TestIsValid:
    def test_all_satisfied(self):
        assert is_valid(two_obj_spec(), {"a": [1.0], "b": [1.0], "c": [5.0]})

    def test_one_op_violated(self):
        spec = ProblemSpec(
            parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
            objectives=(ObjectiveDef("a", "max"),),
            boundaries=(BoundaryDef("c", "range", ((0.0, 10.0),) * 5),),
            n_operating_points=5,
        )
        meas = {"a": [1.0] * 5, "c": [5.0, 5.0, 11.0, 5.0, 5.0]}
        assert not is_valid(spec, meas)

    def test_larger_strict_at_threshold(self):
        spec = ProblemSpec(
            parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
            objectives=(ObjectiveDef("a", "max"),),
            boundaries=(BoundaryDef("i", "larger", (0.0,)),),
        )
        assert not is_valid(spec, {"a": [1.0], "i": [0.0]})
        assert is_valid(spec, {"a": [1.0], "i": [1e-9]})

    def test_nonfinite_invalid(self):
        assert not is_valid(two_obj_spec(), {"a": [float("inf")], "b": [1.0], "c": [5.0]})

    @given(st.floats(-20, 20))
    def test_consistency_with_penalty(self, v):
        # Away from the strict-threshold edge, validity <=> zero penalty.
        spec = two_obj_spec()
        meas = {"a": [1.0], "b": [1.0], "c": [v]}
        bd = evaluate_breakdown(spec, meas)
        assert bd.valid == (sum(bd.penalty_raw) == 0.0)


# Separate penalty and validity walks, as they were before one boundary pass
# produced both; kept as the reference the pass must equal.
def reference_penalty(b, meas, n_ops, rho):
    ops = b.ops(n_ops)
    pens = []
    for v, bound in zip([meas[b.name][i] for i in ops], b.per_op_values(len(ops))):
        if not math.isfinite(v):
            pens.append(rho)
        elif b.kind == "range":
            lo, hi = bound
            pens.append(0.0 if lo <= v <= hi else rho * canberra_sqrt(v, lo if v < lo else hi))
        elif b.kind == "target":
            pens.append(rho * canberra_sqrt(v, bound))
        else:
            pens.append(0.0 if v > bound else rho * canberra_sqrt(v, bound))
    return sum(pens) / len(pens)


def reference_is_valid(spec, meas):
    for name in spec.measurement_names():
        if any(not math.isfinite(v) for v in meas[name]):
            return False
    for b in spec.boundaries:
        ops = b.ops(spec.n_operating_points)
        for v, bound in zip([meas[b.name][i] for i in ops], b.per_op_values(len(ops))):
            if b.kind == "range" and not bound[0] <= v <= bound[1]:
                return False
            if b.kind == "target" and v != bound:
                return False
            if b.kind == "larger" and not v > bound:
                return False
    return True


class TestBoundaryPass:
    BOUNDARIES = [
        BoundaryDef("m", "larger", (0.5,)),
        BoundaryDef("m", "target", (12.0,), op_scope=(1,)),
        BoundaryDef("m", "range", ((0.0, 0.5), (1.0, 2.0))),
    ]
    # Edges (thresholds, targets, range ends) and non-finite values come up
    # as often as arbitrary floats.
    VALUE = st.sampled_from([0.0, 0.5, 1.0, 2.0, 12.0, math.nan, math.inf]) | st.floats(-20, 20)

    @pytest.mark.parametrize("b", BOUNDARIES, ids=lambda b: b.kind)
    @given(vals=st.lists(VALUE, min_size=2, max_size=2))
    def test_matches_reference(self, b, vals):
        spec = ProblemSpec(
            parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
            objectives=(ObjectiveDef("m", "max"),),
            boundaries=(b,),
            n_operating_points=2,
        )
        meas = {"m": vals}
        bd = evaluate_breakdown(spec, meas)
        assert is_valid(spec, meas) == bd.valid == reference_is_valid(spec, meas)
        pen = reference_penalty(b, meas, 2, RHO_SCALAR)
        assert boundary_penalty(b, meas, 2, RHO_SCALAR) == pen
        assert bd.failed or bd.penalty_raw == [pen]
