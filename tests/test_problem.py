import math

import pytest
from hypothesis import given, strategies as st

from carsopt.problem import (
    BoundaryDef,
    DimensionDescriptor,
    ObjectiveDef,
    ParameterDef,
    ProblemError,
    ProblemSpec,
    parse_problem,
    sampled_dimensions,
    to_physical,
)


def from_physical(dim, value):
    """Reference inverse of ``to_physical``."""
    if dim.scale == "log":
        return (math.log(value) - math.log(dim.lo)) / (math.log(dim.hi) - math.log(dim.lo))
    return (value - dim.lo) / (dim.hi - dim.lo)


def llc_spec():
    # 4 single-op parameters + one 5-op parameter + one grid constant.
    return ProblemSpec(
        parameters=(
            ParameterDef("C_res", "log", (1e-9, 1.6e-6)),
            ParameterDef("L_ser", "linear", (5e-6, 40e-6)),
            ParameterDef("L1", "log", (50e-6, 1e-3)),
            ParameterDef("n", "linear", (0.6, 2.2)),
            ParameterDef("f_sw", "linear", (50e3, 320e3), op_count=5),
            ParameterDef("V_out", "grid", grid_values=(300, 350, 400, 450, 500), op_count=5),
        ),
        objectives=(ObjectiveDef("p_out_avg", "target", target_values=(2660, 3160, 3660, 3660, 3660)),),
        boundaries=(),
        n_operating_points=5,
    )


class TestSampledDimensions:
    def test_llc_expansion(self):
        dims = sampled_dimensions(llc_spec())
        assert len(dims) == 9
        assert [d.parameter for d in dims] == ["C_res", "L_ser", "L1", "n"] + ["f_sw"] * 5
        assert [d.op_index for d in dims[4:]] == [0, 1, 2, 3, 4]

    def test_single_parameter(self):
        spec = ProblemSpec(
            parameters=(ParameterDef("x", "linear", (0.0, 1.0)),),
            objectives=(ObjectiveDef("m", "max"),),
            boundaries=(),
        )
        assert len(sampled_dimensions(spec)) == 1

    def test_boost_dimensions(self):
        spec = ProblemSpec(
            parameters=(
                ParameterDef("C1", "log", (1e-9, 1e-3)),
                ParameterDef("L1", "log", (1e-6, 100e-3)),
                ParameterDef("fsw", "log", (100, 1e6)),
            ),
            objectives=(ObjectiveDef("vmean", "target", target_values=(12,)),),
            boundaries=(),
        )
        assert len(sampled_dimensions(spec)) == 3

    def test_deterministic_order(self):
        assert sampled_dimensions(llc_spec()) == sampled_dimensions(llc_spec())


class TestToPhysical:
    def test_linear_midpoint(self):
        dim = DimensionDescriptor("x", 0, "linear", 0.0, 10.0)
        assert to_physical(dim, 0.5) == 5.0

    def test_log_geometric_midpoint(self):
        dim = DimensionDescriptor("x", 0, "log", 1e-9, 1e-3)
        assert to_physical(dim, 0.5) == pytest.approx(1e-6, rel=1e-12)

    def test_log_lower_endpoint(self):
        dim = DimensionDescriptor("x", 0, "log", 1e-9, 1e-3)
        assert to_physical(dim, 0.0) == pytest.approx(1e-9, rel=1e-12)

    def test_out_of_range_rejected(self):
        dim = DimensionDescriptor("x", 0, "linear", 0.0, 1.0)
        with pytest.raises(ProblemError):
            to_physical(dim, 1.5)

    @given(st.floats(0.0, 1.0))
    def test_linear_round_trip(self, u):
        dim = DimensionDescriptor("x", 0, "linear", -3.0, 17.0)
        assert from_physical(dim, to_physical(dim, u)) == pytest.approx(u, abs=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_log_round_trip(self, u):
        dim = DimensionDescriptor("x", 0, "log", 1e-9, 1e-3)
        assert from_physical(dim, to_physical(dim, u)) == pytest.approx(u, abs=1e-9)


class TestValidation:
    def test_log_needs_positive_lo(self):
        with pytest.raises(ProblemError):
            ParameterDef("x", "log", (0.0, 1.0))

    def test_grid_needs_value_per_op(self):
        with pytest.raises(ProblemError):
            ParameterDef("v", "grid", grid_values=(1.0,), op_count=3)

    @pytest.mark.parametrize(
        "param",
        [
            ParameterDef("x", "linear", (0.0, 1.0), op_count=3),
            ParameterDef("v", "grid", grid_values=(1.0, 2.0, 3.0), op_count=3),
        ],
    )
    def test_op_count_is_one_or_every_operating_point(self, param):
        with pytest.raises(ProblemError, match=f"parameter {param.name}: op_count 3"):
            ProblemSpec(parameters=(param,), n_operating_points=2)
        assert ProblemSpec(parameters=(param,), n_operating_points=3).n_operating_points == 3

    @pytest.mark.parametrize(
        "kind,values,want",
        [
            ("range", (0.0, 1.0), ((0.0, 1.0),)),
            ("range", [[0.0, 1.0], [2, 3]], ((0.0, 1.0), (2, 3))),
            ("larger", 0, (0,)),
            ("target", [1.0, 2.0], (1.0, 2.0)),
        ],
    )
    def test_boundary_values_canonical(self, kind, values, want):
        # Pairs for range, numbers otherwise, so one value repeats per op.
        b = BoundaryDef("m", kind, values)
        assert b.values == want
        assert b.per_op_values(2) == list(want * 2 if len(want) == 1 else want)

    @pytest.mark.parametrize(
        "kind,values",
        [
            ("range", 0),
            ("range", ((1.0, 2.0, 3.0),)),
            ("range", ((1.0, 2.0), 3.0)),
            ("target", ((1.0, 2.0),)),
            ("larger", "x"),
        ],
    )
    def test_boundary_values_wrong_shape(self, kind, values):
        with pytest.raises(ProblemError, match="values must be"):
            BoundaryDef("m", kind, values)

    def test_min_range_needs_two_ops(self):
        with pytest.raises(ProblemError):
            ProblemSpec(
                parameters=(ParameterDef("x", "linear", (0, 1)),),
                objectives=(ObjectiveDef("m", "min_range"),),
                boundaries=(),
                n_operating_points=1,
            )

    @pytest.mark.parametrize(
        "boundary",
        [BoundaryDef("m", "range", ((0.0, 1.0), (0.0, 1.0))), BoundaryDef("m", "target", (1.0, 2.0))],
        ids=["range", "target"],
    )
    def test_boundary_needs_value_per_op(self, boundary):
        # Two values on three operating points would leave op 2 unchecked.
        with pytest.raises(ProblemError, match="per operating point"):
            ProblemSpec(
                parameters=(ParameterDef("x", "linear", (0, 1)),),
                objectives=(),
                boundaries=(boundary,),
                n_operating_points=3,
            )

    @pytest.mark.parametrize(
        "objectives,boundaries",
        [
            ((ObjectiveDef("m", "max", op_scope=(3,)),), ()),
            ((), (BoundaryDef("m", "larger", (0.0,), op_scope=(-1,)),)),
            ((ObjectiveDef("m", "max", op_scope=()),), ()),
            ((), (BoundaryDef("m", "larger", (0.0,), op_scope=()),)),
        ],
        ids=["objective", "boundary", "objective-empty", "boundary-empty"],
    )
    def test_op_scope_within_operating_points(self, objectives, boundaries):
        with pytest.raises(ProblemError, match="op_scope"):
            ProblemSpec(
                parameters=(ParameterDef("x", "linear", (0, 1)),),
                objectives=objectives,
                boundaries=boundaries,
                n_operating_points=2,
            )


class TestConfigParsing:
    def test_round_trip(self):
        data = {
            "n_operating_points": 1,
            "parameters": [
                {"name": "C1", "scale": "log", "bounds": [1e-9, 1e-3]},
                {"name": "fsw", "scale": "linear", "bounds": [100, 1e6]},
            ],
            "objectives": [{"name": "vmean", "kind": "target", "target_values": [12]}],
            "boundaries": [{"name": "vmean", "kind": "range", "values": [[11.5, 12.5]]}],
            "run": {"n_total": 100, "seed": 3},
        }
        spec = parse_problem(data)
        assert spec.n_dim == 2
        assert spec.run["n_total"] == 100
        assert spec.boundaries[0].per_op_values(1) == [(11.5, 12.5)]

    def test_bad_root(self):
        with pytest.raises(ProblemError):
            parse_problem([1, 2])
