import math
from dataclasses import fields, replace

import numpy as np
import pytest

from stationopt.gas import (
    GasConstants,
    PapayRangeWarning,
    adiabatic_head,
    compression_power,
    cross_section_area,
    nikuradse_friction,
    papay_z,
    pipe_velocity_constant,
    ratio_from_head,
    resistor_velocity_constant,
)

from oracles import head_terms, scalar_compression_power

CONSTANTS = GasConstants(
    specific_gas_constant=500.0,
    temperature=283.15,
    pseudo_critical_pressure=46.0,
    pseudo_critical_temperature=190.0,
    normal_density=0.785,
)


class TestGasConstants:
    @pytest.mark.parametrize("field", [f.name for f in fields(GasConstants)])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            replace(CONSTANTS, **{field: math.nan})


class TestNikuradse:
    def test_identity_point(self):
        # 2 log10(D/k) + 1.138 == 1  <=>  D/k = 10^((1-1.138)/2)
        ratio = 10.0 ** ((1.0 - 1.138) / 2.0)
        assert nikuradse_friction(ratio, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        # frozen from an independent high-precision evaluation of the formula
        assert nikuradse_friction(1.0, 0.001) == pytest.approx(0.019626683213792440, rel=1e-9)

    def test_rougher_pipe_has_more_friction(self):
        assert nikuradse_friction(1.0, 0.01) > nikuradse_friction(1.0, 0.001)

    @pytest.mark.parametrize("d,k", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1)])
    def test_nonpositive_inputs_raise(self, d, k):
        with pytest.raises(ValueError):
            nikuradse_friction(d, k)


class TestPapay:
    def test_zero_pressure(self):
        assert papay_z(0.0, CONSTANTS) == 1.0

    def test_at_pseudocritical_point(self):
        c = GasConstants(
            specific_gas_constant=500.0,
            temperature=190.0,
            pseudo_critical_pressure=46.0,
            pseudo_critical_temperature=190.0,
            normal_density=0.785,
        )
        # frozen from an independent high-precision evaluation
        assert papay_z(46.0, c) == pytest.approx(0.6704515047272117, rel=1e-9)

    def test_pipe_average_symmetry(self):
        z = papay_z(60.0, CONSTANTS)
        assert 0.5 * (z + z) == pytest.approx(papay_z(60.0, CONSTANTS), abs=0)

    def test_out_of_range_warns_but_returns(self):
        with pytest.warns(PapayRangeWarning):
            value = papay_z(180.0, CONSTANTS)
        assert np.isfinite(value)

    def test_decreasing_below_critical_pressure(self):
        hot = GasConstants(
            specific_gas_constant=500.0,
            temperature=200.0,
            pseudo_critical_pressure=46.0,
            pseudo_critical_temperature=190.0,
            normal_density=0.785,
        )
        grid = np.linspace(0.0, 46.0, 24)
        values = [papay_z(p, hot) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestVelocityConstants:
    AREA = cross_section_area(0.25)

    def test_zero_flow(self):
        assert pipe_velocity_constant(50e5, 0.0, self.AREA, 0.9, CONSTANTS) == 0.0

    def test_linear_in_flow_magnitude(self):
        v1 = pipe_velocity_constant(50e5, 60.0, self.AREA, 0.9, CONSTANTS)
        v2 = pipe_velocity_constant(50e5, -120.0, self.AREA, 0.9, CONSTANTS)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_reference_value(self):
        v = pipe_velocity_constant(50e5, 120.0, self.AREA, 0.9, CONSTANTS)
        assert v == pytest.approx(62.29747188145636, rel=1e-9)

    def test_resistor_mean_of_ends(self):
        sym = resistor_velocity_constant(50e5, 50e5, 120.0, self.AREA, 0.9, CONSTANTS)
        assert sym == pytest.approx(pipe_velocity_constant(50e5, 120.0, self.AREA, 0.9, CONSTANTS))
        asym = resistor_velocity_constant(40e5, 60e5, 120.0, self.AREA, 0.9, CONSTANTS)
        expect = 0.5 * (
            pipe_velocity_constant(40e5, 120.0, self.AREA, 0.9, CONSTANTS)
            + pipe_velocity_constant(60e5, 120.0, self.AREA, 0.9, CONSTANTS)
        )
        assert asym == pytest.approx(expect, rel=1e-12)

    def test_resistor_zero_flow(self):
        assert resistor_velocity_constant(40e5, 60e5, 0.0, self.AREA, 0.9, CONSTANTS) == 0.0

    def test_zero_pressure_raises(self):
        with pytest.raises(ValueError):
            pipe_velocity_constant(0.0, 1.0, self.AREA, 0.9, CONSTANTS)


class TestHeadAndPower:
    def test_no_compression_no_head(self):
        assert adiabatic_head(1.0, 0.9, CONSTANTS) == 0.0

    def test_reference_value(self):
        assert adiabatic_head(1.5, 0.9, CONSTANTS) == pytest.approx(54131.10957948559, rel=1e-9)

    @pytest.mark.parametrize("ratio", [1.0, 1.1, 1.5, 2.3, 4.0])
    def test_inverse_pair(self, ratio):
        head = adiabatic_head(ratio, 0.9, CONSTANTS)
        assert ratio_from_head(head, 0.9, CONSTANTS) == pytest.approx(ratio, abs=1e-10)

    def test_ratio_below_one_raises(self):
        with pytest.raises(ValueError):
            adiabatic_head(0.99, 0.9, CONSTANTS)

    def test_power_zero_cases(self):
        assert compression_power(0.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS) == 0.0
        assert compression_power(150.0, 40e5, 40e5, 0.9, 0.8, CONSTANTS) == 0.0

    def test_power_linear_in_flow(self):
        p1 = compression_power(100.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS)
        p2 = compression_power(200.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_power_increasing_in_outlet_pressure(self):
        values = [
            compression_power(100.0, 40e5, pr, 0.9, 0.8, CONSTANTS)
            for pr in np.linspace(40e5, 80e5, 9)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_power_precondition_breaches(self):
        with pytest.raises(ValueError):
            compression_power(10.0, 60e5, 40e5, 0.9, 0.8, CONSTANTS)
        with pytest.raises(ValueError):
            compression_power(10.0, 40e5, 60e5, 0.9, 1.5, CONSTANTS)
        with pytest.raises(ValueError):
            compression_power(10.0, 0.0, 60e5, 0.9, 0.8, CONSTANTS)

    def test_matches_head_times_flow_over_efficiency(self):
        q, pl, pr, zl, eta = 85.0, 42e5, 63e5, 0.88, 0.82
        expect = q * adiabatic_head(pr / pl, zl, CONSTANTS) / eta
        assert compression_power(q, pl, pr, zl, eta, CONSTANTS) == pytest.approx(expect, rel=1e-14)


class TestHeadAndPowerArrays:
    """The array path against a scalar closed form evaluated with math.pow.

    The head is scale * (r^e - 1); subtracting 1 cancels leading digits,
    which magnifies a last-bit difference of r^e by r^e / (r^e - 1)
    (numpy's vectorised power and math.pow differ in the last bit for a
    few percent of inputs).  So the results must agree to 1e-15 relative
    to the term before cancellation, scale * r^e.
    """

    RNG = np.random.default_rng(7)
    # dense near ratio 1, where the cancellation is worst
    RATIOS = np.concatenate([[1.0], 1.0 + 3.0 * RNG.random(4000) ** 3])
    FLOWS = RNG.uniform(0.0, 300.0, RATIOS.size)
    INLETS = RNG.uniform(20e5, 80e5, RATIOS.size)

    def test_head_matches_scalar_oracle(self):
        head = adiabatic_head(self.RATIOS, 0.9, CONSTANTS)
        terms = [head_terms(r, 0.9, CONSTANTS) for r in self.RATIOS]
        expect = np.array([scale * (term - 1.0) for scale, term in terms])
        size = np.array([scale * term for scale, term in terms])
        assert isinstance(head, np.ndarray) and head.shape == self.RATIOS.shape
        assert np.all(np.abs(head - expect) <= 1e-15 * size)

    def test_power_matches_scalar_oracle(self):
        outlets = self.INLETS * self.RATIOS
        power = compression_power(self.FLOWS, self.INLETS, outlets, 0.88, 0.82, CONSTANTS)
        expect = np.array(
            [
                scalar_compression_power(q, pl, pr, 0.88, 0.82, CONSTANTS)
                for q, pl, pr in zip(self.FLOWS, self.INLETS, outlets)
            ]
        )
        terms = [head_terms(pr / pl, 0.88, CONSTANTS) for pl, pr in zip(self.INLETS, outlets)]
        size = self.FLOWS * np.array([scale * term for scale, term in terms]) / 0.82
        assert np.all(np.abs(power - expect) <= 1e-15 * size)

    def test_power_exactly_zero_where_idle(self):
        q = np.array([0.0, 120.0, 0.0, 80.0, 95.0])
        pl = np.array([40e5, 45e5, 50e5, 42e5, 38e5])
        pr = np.array([60e5, 45e5, 50e5, 63e5, 52e5])
        power = compression_power(q, pl, pr, 0.9, 0.8, CONSTANTS)
        idle = (q == 0.0) | (pr == pl)
        assert np.all(power[idle] == 0.0)
        assert np.all(power[~idle] > 0.0)

    @pytest.mark.parametrize(
        "pl, pr",
        [
            ([40e5, 0.0, 45e5], [60e5, 50e5, 50e5]),  # one inlet pressure zero
            ([40e5, -1e5, 45e5], [60e5, 50e5, 50e5]),  # one inlet pressure negative
            ([40e5, 50e5, 45e5], [60e5, 49e5, 50e5]),  # one outlet below its inlet
        ],
    )
    def test_one_bad_entry_raises(self, pl, pr):
        with pytest.raises(ValueError):
            compression_power(np.full(3, 100.0), np.array(pl), np.array(pr), 0.9, 0.8, CONSTANTS)

    def test_head_error_names_smallest_ratio(self):
        with pytest.raises(ValueError, match=r"got 0\.97$"):
            adiabatic_head(np.array([1.2, 0.99, 0.97, 1.5]), 0.9, CONSTANTS)

    def test_float_input_returns_float(self):
        assert type(adiabatic_head(1.5, 0.9, CONSTANTS)) is float
        assert type(compression_power(100.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS)) is float
        assert type(compression_power(0.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS)) is float


def test_area_formula():
    assert cross_section_area(2.0) == pytest.approx(math.pi, rel=1e-15)


def test_constants_validation():
    with pytest.raises(ValueError):
        GasConstants(500.0, 283.15, 46.0, 190.0, normal_density=-1.0)
    with pytest.raises(ValueError):
        GasConstants(500.0, 283.15, 46.0, 190.0, 0.785, isentropic_exponent=0.9)
