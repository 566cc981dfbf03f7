import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carsopt.fitness import (
    FAILED_GA_OBJECTIVE,
    RHO_GA,
    RHO_SCALAR,
    NormalizationConstants,
    evaluate_breakdown,
    ga_objective_vector,
)
from carsopt.problem import BoundaryDef, ObjectiveDef, ParameterDef, ProblemSpec

X = (ParameterDef("x", "linear", (0.0, 1.0)),)


def one_item_spec(item, n_ops=1):
    """A spec whose only objective or boundary condition is ``item``."""
    if isinstance(item, ObjectiveDef):
        return ProblemSpec(parameters=X, objectives=(item,), boundaries=(), n_operating_points=n_ops)
    return ProblemSpec(parameters=X, objectives=(), boundaries=(item,), n_operating_points=n_ops)


def objective_raw(o, meas, n_ops):
    return evaluate_breakdown(one_item_spec(o, n_ops), [meas]).objective_raw[0, 0]


def penalty_raw(b, meas, n_ops):
    return evaluate_breakdown(one_item_spec(b, n_ops), [meas]).penalty_raw[0, 0]


def canberra(v, t):
    """sqrt(|v - t| / (|v| + |t|)), the negated raw fitness of a one-point target objective."""
    return -objective_raw(ObjectiveDef("m", "target", target_values=(t,)), {"m": [v]}, 1)


def is_valid(spec, meas):
    return bool(evaluate_breakdown(spec, [meas]).valid[0])


# ---------------------------------------------------------------------------
# The per-sample fitness code that batch fitness replaced, kept as the oracle
# a batch must equal bit for bit.  The one change: a measurement with fewer
# values than operating points fails its sample, where it used to raise.
# ---------------------------------------------------------------------------

def canberra_sqrt(value, target):
    num = abs(value - target)
    if num == 0.0:
        return 0.0
    return math.sqrt(num / (abs(value) + abs(target)))


def _op_values(meas, name, ops):
    vals = meas[name]
    return [vals[i] for i in ops]


def _boundary_pass(b, meas, n_ops, rho):
    ops = b.ops(n_ops)
    pens, holds = [], True
    for v, bound in zip(_op_values(meas, b.name, ops), b.per_op_values(len(ops))):
        if not math.isfinite(v):
            pens.append(rho)
            holds = False
            continue
        if b.kind == "range":
            lo, hi = bound
            ok = lo <= v <= hi
            pens.append(0.0 if ok else rho * canberra_sqrt(v, lo if v < lo else hi))
        elif b.kind == "target":
            ok = v == bound
            pens.append(rho * canberra_sqrt(v, bound))
        else:
            ok = v > bound
            pens.append(0.0 if ok else rho * canberra_sqrt(v, bound))
        holds = holds and ok
    return sum(pens) / len(pens), holds


def objective_fitness(o, meas, n_ops):
    ops = o.ops(n_ops)
    vals = _op_values(meas, o.name, ops)
    if o.kind == "max":
        return sum(vals) / len(vals)
    if o.kind == "min":
        return -sum(vals) / len(vals)
    if o.kind == "target":
        targets = o.target_values
        if len(targets) == 1:
            targets = targets * len(ops)
        return -sum(canberra_sqrt(v, t) for v, t in zip(vals, targets)) / len(vals)
    return -max(vals) + min(vals)


def _measured(spec, meas):
    if meas is None:
        return False
    for name in spec.measurement_names():
        vals = meas.get(name)
        if vals is None or len(vals) < spec.n_operating_points or any(not math.isfinite(v) for v in vals):
            return False
    return True


@dataclass
class SampleBreakdown:
    objective_raw: list
    penalty_raw: list
    valid: bool
    failed: bool

    def pre_scalar(self, consts):
        if self.failed:
            return 0.0
        obj = [consts.normalize(v, lo_hi) for v, lo_hi in zip(self.objective_raw, consts.objective.values())]
        fit = sum(obj) / len(obj) if obj else 0.0
        if self.penalty_raw:
            pen = [consts.normalize(v, lo_hi) for v, lo_hi in zip(self.penalty_raw, consts.boundary.values())]
            fit -= sum(pen) / len(pen)
        return fit

    def scalar(self, consts):
        if self.failed:
            return 0.0
        pre = self.pre_scalar(consts)
        if consts.scalar is None:
            return pre
        return consts.normalize(pre, consts.scalar)

    def ga_vector(self):
        if self.failed:
            return [FAILED_GA_OBJECTIVE] * len(self.objective_raw)
        total_pen = sum(self.penalty_raw) * (RHO_GA / RHO_SCALAR)
        return [v - total_pen for v in self.objective_raw]


def sample_breakdown(spec, meas):
    if not _measured(spec, meas):
        return SampleBreakdown([math.nan] * len(spec.objectives), [math.nan] * len(spec.boundaries), False, True)
    n_ops = spec.n_operating_points
    passes = [_boundary_pass(b, meas, n_ops, RHO_SCALAR) for b in spec.boundaries]
    return SampleBreakdown(
        [objective_fitness(o, meas, n_ops) for o in spec.objectives],
        [pen for pen, _ in passes],
        all(holds for _, holds in passes),
        False,
    )


def sample_constants(spec, breakdowns):
    def min_max(vals):
        return (min(vals), max(vals)) if vals else (0.0, 0.0)

    consts = NormalizationConstants()
    ok = [bd for bd in breakdowns if not bd.failed] or breakdowns
    for i, o in enumerate(spec.objectives):
        vals = [bd.objective_raw[i] for bd in ok if math.isfinite(bd.objective_raw[i])]
        consts.objective[f"obj{i}:{o.name}"] = min_max(vals)
    for i, b in enumerate(spec.boundaries):
        vals = [bd.penalty_raw[i] for bd in ok if math.isfinite(bd.penalty_raw[i])]
        consts.boundary[f"bnd{i}:{b.name}"] = min_max(vals)
    consts.scalar = min_max([s for s in (bd.pre_scalar(consts) for bd in ok) if math.isfinite(s)])
    return consts


class TestCanberraSqrt:
    def test_identity(self):
        assert canberra(2300.0, 2300.0) == 0.0

    def test_worked_value(self):
        assert canberra(2400.0, 2300.0) == pytest.approx(math.sqrt(100 / 4700), rel=1e-12)
        assert canberra(2400.0, 2300.0) == pytest.approx(0.14587, abs=1e-5)

    def test_zero_zero_convention(self):
        assert canberra(0.0, 0.0) == 0.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_sqrt_dominates_argument(self, v, t):
        # sqrt(x) >= x on [0, 1], so the penalty exceeds the plain ratio.
        if v == 0 and t == 0:
            return
        ratio = abs(v - t) / (abs(v) + abs(t))
        assert canberra(v, t) >= ratio - 1e-15

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_nonnegative_and_zero_iff_equal(self, v, t):
        d = canberra(v, t)
        assert d >= 0.0
        assert (d == 0.0) == (v == t)


class TestBoundaryPenalty:
    def test_inside_range(self):
        b = BoundaryDef("vmean", "range", ((11.5, 12.5),))
        assert penalty_raw(b, {"vmean": [12.0]}, 1) == 0.0

    def test_target_worked_value(self):
        b = BoundaryDef("p", "target", (2300.0,))
        assert penalty_raw(b, {"p": [2400.0]}, 1) == pytest.approx(14.587, abs=1e-3)

    def test_range_nearest_bound(self):
        b = BoundaryDef("p", "range", ((2600.0, 2700.0),))
        pen = penalty_raw(b, {"p": [2300.0]}, 1)
        assert pen == pytest.approx(100 * math.sqrt(300 / 4900), rel=1e-12)
        assert pen == pytest.approx(24.74, abs=1e-2)

    def test_larger_satisfied(self):
        b = BoundaryDef("i", "larger", (0.0,))
        assert penalty_raw(b, {"i": [1.0]}, 1) == 0.0

    def test_per_op_mean(self):
        b = BoundaryDef("p", "target", (2300.0, 2300.0))
        meas = {"p": [2300.0, 2400.0]}
        spec_pen = 100 * canberra_sqrt(2400.0, 2300.0) / 2
        assert penalty_raw(b, meas, 2) == pytest.approx(spec_pen)

    @given(st.floats(-1e4, 1e4))
    def test_nonnegative(self, v):
        b = BoundaryDef("m", "range", ((0.0, 10.0),))
        assert penalty_raw(b, {"m": [v]}, 1) >= 0.0


class TestObjectiveFitness:
    def test_min_range(self):
        o = ObjectiveDef("fsw", "min_range")
        assert objective_raw(o, {"fsw": [250e3, 300e3, 280e3]}, 3) == pytest.approx(-50e3)

    def test_target_exact(self):
        o = ObjectiveDef("vmean", "target", target_values=(12.0,))
        assert objective_raw(o, {"vmean": [12.0]}, 1) == 0.0

    def test_max_mean_over_ops(self):
        o = ObjectiveDef("eta", "max")
        assert objective_raw(o, {"eta": [0.9, 0.8]}, 2) == pytest.approx(0.85)

    def test_min_negates(self):
        o = ObjectiveDef("i", "min")
        assert objective_raw(o, {"i": [2.0, 4.0]}, 2) == pytest.approx(-3.0)


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
        parameters=X,
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
        bd = evaluate_breakdown(two_obj_spec(), [{"a": [0.6], "b": [0.8], "c": [5.0]}])
        assert bd.pre_scalar(consts)[0] == pytest.approx(0.7)

    def test_scalar_subtracts_penalty_mean(self):
        spec = ProblemSpec(
            parameters=X,
            objectives=(ObjectiveDef("a", "max"),),
            boundaries=(BoundaryDef("c", "range", ((0.0, 10.0),)),),
        )
        consts = NormalizationConstants(
            objective={"obj0:a": (0.0, 1.0)},
            boundary={"bnd0:c": (0.0, 1.0)},
        )
        bd = evaluate_breakdown(spec, [{"a": [0.5], "c": [5.0]}])
        bd.penalty_raw = np.array([[0.2]])
        assert bd.pre_scalar(consts)[0] == pytest.approx(0.3)

    def test_ga_vector_unchanged_when_valid(self):
        bd = evaluate_breakdown(two_obj_spec(), [{"a": [0.6], "b": [0.8], "c": [5.0]}])
        assert ga_objective_vector(bd)[0] == pytest.approx([0.6, 0.8])

    def test_ga_vector_penalized(self):
        bd = evaluate_breakdown(two_obj_spec(), [{"a": [0.6], "b": [0.8], "c": [11.0]}])
        pen = 10_000 * canberra_sqrt(11.0, 10.0)
        assert ga_objective_vector(bd)[0] == pytest.approx([0.6 - pen, 0.8 - pen])

    def test_failed_sample(self):
        bd = evaluate_breakdown(two_obj_spec(), [{"a": [float("nan")], "b": [0.8], "c": [5.0]}])
        assert bd.failed[0] and not bd.valid[0]
        consts = NormalizationConstants(scalar=(0.0, 1.0))
        assert bd.scalar(consts)[0] == 0.0
        assert ga_objective_vector(bd)[0].tolist() == [FAILED_GA_OBJECTIVE, FAILED_GA_OBJECTIVE]

    def test_short_measurement_fails_the_sample(self):
        spec = ProblemSpec(parameters=X, objectives=(ObjectiveDef("a", "max"),), boundaries=(), n_operating_points=2)
        bd = evaluate_breakdown(spec, [{"a": [1.0]}, {"a": []}, {"a": [1.0, 2.0]}])
        assert bd.failed.tolist() == [True, True, False]
        assert bd.valid.tolist() == [False, False, True]

    def test_order_invariance(self):
        spec = two_obj_spec()
        meas = {"a": [0.3], "b": [0.9], "c": [12.0]}
        swapped = ProblemSpec(
            parameters=spec.parameters,
            objectives=(spec.objectives[1], spec.objectives[0]),
            boundaries=spec.boundaries,
        )
        c1 = NormalizationConstants.from_first_batch(spec, evaluate_breakdown(spec, [meas]))
        c2 = NormalizationConstants.from_first_batch(swapped, evaluate_breakdown(swapped, [meas]))
        s1 = evaluate_breakdown(spec, [meas]).scalar(c1)[0]
        s2 = evaluate_breakdown(swapped, [meas]).scalar(c2)[0]
        assert s1 == pytest.approx(s2)


class TestIsValid:
    def test_all_satisfied(self):
        assert is_valid(two_obj_spec(), {"a": [1.0], "b": [1.0], "c": [5.0]})

    def test_one_op_violated(self):
        spec = ProblemSpec(
            parameters=X,
            objectives=(ObjectiveDef("a", "max"),),
            boundaries=(BoundaryDef("c", "range", ((0.0, 10.0),) * 5),),
            n_operating_points=5,
        )
        meas = {"a": [1.0] * 5, "c": [5.0, 5.0, 11.0, 5.0, 5.0]}
        assert not is_valid(spec, meas)

    def test_larger_strict_at_threshold(self):
        spec = ProblemSpec(
            parameters=X,
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
        bd = evaluate_breakdown(spec, [meas])
        assert bd.valid[0] == (bd.penalty_raw.sum() == 0.0)


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
            parameters=X,
            objectives=(ObjectiveDef("m", "max"),),
            boundaries=(b,),
            n_operating_points=2,
        )
        meas = {"m": vals}
        bd = evaluate_breakdown(spec, [meas])
        assert bd.valid[0] == reference_is_valid(spec, meas)
        assert bd.failed[0] or bd.penalty_raw[0].tolist() == [reference_penalty(b, meas, 2, RHO_SCALAR)]


# ---------------------------------------------------------------------------
# A batch equals its samples scored one by one, bit for bit
# ---------------------------------------------------------------------------

NAMES = ("a", "b", "c")
# Edges of every kind: signed zeros, the largest and smallest floats,
# non-finite values, and the thresholds the specs below use.
EDGE = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e308, -1e308, 5e-324, -5e-324, math.nan, math.inf, -math.inf]
)
VALUE = EDGE | st.floats() | st.floats(-3.0, 3.0)
BOUND = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 1e308, 5e-324]) | st.floats(-3.0, 3.0)


@st.composite
def scopes(draw, n_ops, min_size=1):
    if draw(st.booleans()):
        return "all", n_ops
    ops = draw(st.lists(st.integers(0, n_ops - 1), min_size=min_size, max_size=n_ops + 1))
    return tuple(ops), len(ops)


@st.composite
def objectives(draw, n_ops):
    kind = draw(st.sampled_from(["max", "min", "target", "min_range"] if n_ops > 1 else ["max", "min", "target"]))
    scope, k = draw(scopes(n_ops, min_size=2 if kind == "min_range" else 1))
    targets = None
    if kind == "target":
        targets = tuple(draw(st.lists(BOUND, min_size=1, max_size=1) | st.lists(BOUND, min_size=k, max_size=k)))
    return ObjectiveDef(draw(st.sampled_from(NAMES)), kind, target_values=targets, op_scope=scope)


@st.composite
def boundaries(draw, n_ops):
    kind = draw(st.sampled_from(["range", "target", "larger"]))
    scope, k = draw(scopes(n_ops))
    count = draw(st.sampled_from([1, k]))
    if kind == "range":
        values = tuple(tuple(sorted(draw(st.lists(BOUND, min_size=2, max_size=2)))) for _ in range(count))
    else:
        values = tuple(draw(st.lists(BOUND, min_size=count, max_size=count)))
    return BoundaryDef(draw(st.sampled_from(NAMES)), kind, values, op_scope=scope)


@st.composite
def specs(draw):
    n_ops = draw(st.integers(1, 4))
    return ProblemSpec(
        parameters=X,
        objectives=tuple(draw(st.lists(objectives(n_ops), min_size=0, max_size=3))),
        boundaries=tuple(draw(st.lists(boundaries(n_ops), min_size=0, max_size=3))),
        n_operating_points=n_ops,
    )


@st.composite
def batches(draw, spec):
    """1 to 12 samples' ``meas``: None, or lists per name that may be
    missing, short or long, mostly of finite values."""
    n_ops = spec.n_operating_points
    metas = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 19)) == 0:
            metas.append(None)
            continue
        meas = {}
        for name in spec.measurement_names():
            size = draw(st.sampled_from([n_ops] * 8 + [0, n_ops - 1, n_ops + 1]))
            if draw(st.integers(0, 19)):
                meas[name] = draw(st.lists(VALUE, min_size=size, max_size=size))
        metas.append(meas)
    return metas


def bits(values):
    """Floats as their reprs: NaN compares equal to NaN, -0.0 differs from 0.0."""
    return [repr(float(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batch_matches_per_sample_code(data):
    spec = data.draw(specs())
    first, later = data.draw(batches(spec)), data.draw(batches(spec))
    bd = evaluate_breakdown(spec, first)
    ref = [sample_breakdown(spec, meas) for meas in first]

    assert bd.objective_raw.shape == (len(first), len(spec.objectives))
    assert bd.penalty_raw.shape == (len(first), len(spec.boundaries))
    for row, r in zip(bd.objective_raw, ref):
        assert bits(row) == bits(r.objective_raw)
    for row, r in zip(bd.penalty_raw, ref):
        assert bits(row) == bits(r.penalty_raw)
    assert bd.valid.tolist() == [r.valid for r in ref]
    assert bd.failed.tolist() == [r.failed for r in ref]

    consts = NormalizationConstants.from_first_batch(spec, bd)
    assert json.dumps(consts.to_dict()) == json.dumps(sample_constants(spec, ref).to_dict())
    assert bits(bd.scalar(consts)) == bits(r.scalar(consts) for r in ref)
    later_bd = evaluate_breakdown(spec, later)
    assert bits(later_bd.scalar(consts)) == bits(sample_breakdown(spec, m).scalar(consts) for m in later)

    vecs = ga_objective_vector(bd)
    assert vecs.shape == bd.objective_raw.shape
    for row, r in zip(vecs, ref):
        assert bits(row) == bits(r.ga_vector())
    if spec.objectives:
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(vecs.mean(axis=1)) == bits(np.mean(np.asarray(r.ga_vector())) for r in ref)
