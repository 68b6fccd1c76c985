import math

import numpy as np
import pytest

from mmwchan.core import (
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    Environment,
    FadingModel,
    MultipathComponent,
    Polarization,
    Scenario,
    all_scenarios,
    lookup_default_params,
    validate_cir,
)


def comp(power=1.0, phase=0.0, delay=0.0, aod=(0.0, 0.0), aoa=(0.0, 0.0)):
    return MultipathComponent(power_gain=power, phase=phase, delay=delay, aod=aod, aoa=aoa)


class TestMultipathComponent:
    def test_valid(self):
        comp(power=0.5, phase=1.0, delay=10e-9, aod=(3.0, 0.2), aoa=(0.1, -0.3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(power=0.0),
            dict(power=-1.0),
            dict(power=math.nan),
            dict(phase=-0.1),
            dict(phase=2 * math.pi),
            dict(delay=-1e-9),
            dict(aod=(-0.1, 0.0)),
            dict(aod=(2 * math.pi, 0.0)),
            dict(aoa=(0.0, 2.0)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            comp(**kwargs)


class TestValidateCir:
    def test_minimal_legal_cir(self):
        cir = ChannelImpulseResponse.from_components([comp()], Scenario.parse("NLOS V-V"))
        assert validate_cir(cir) == []

    def test_empty_cir_reports_k_violation(self):
        cir = ChannelImpulseResponse.from_components([], Scenario.parse("NLOS V-V"))
        violations = validate_cir(cir)
        assert any("K >= 1" in v for v in violations)

    def test_descending_delays_reported(self):
        cir = ChannelImpulseResponse.from_components(
            [comp(delay=10e-9, power=0.5), comp(delay=5e-9, power=0.5)],
            Scenario.parse("NLOS V-V"),
        )
        violations = validate_cir(cir)
        assert any("non-decreasing delays" in v for v in violations)

    def test_stale_total_power_reported(self):
        cir = ChannelImpulseResponse(
            components=(comp(power=0.5),),
            scenario=Scenario.parse("NLOS V-V"),
            total_power=1.0,
        )
        violations = validate_cir(cir)
        assert any("total_power" in v for v in violations)


class TestScenario:
    def test_parse_labels(self):
        for scen in all_scenarios():
            assert Scenario.parse(scen.label()) == scen

    def test_parse_case_insensitive(self):
        assert Scenario.parse("nlos v-v") == Scenario(Environment.NLOS, Polarization.VV)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Scenario.parse("URBAN H-H")


class TestDefaults:
    def test_nlos_vv(self):
        d = lookup_default_params(Scenario.parse("NLOS V-V"))
        assert (d.autocorr.a, d.autocorr.b, d.autocorr.c) == (0.9, 1.0, -0.1)
        assert d.k_range_db == (5.0, 8.0)

    def test_los_vv(self):
        d = lookup_default_params(Scenario.parse("LOS V-V"))
        assert (d.autocorr.a, d.autocorr.b, d.autocorr.c) == (0.99, 1.95, 0.0)
        assert d.k_range_db == (9.0, 15.0)

    def test_nlos_vh(self):
        d = lookup_default_params(Scenario.parse("NLOS V-H"))
        assert (d.autocorr.a, d.autocorr.b, d.autocorr.c) == (1.0, 2.6, 0.0)
        assert d.k_range_db == (3.0, 7.0)

    def test_los_vh(self):
        d = lookup_default_params(Scenario.parse("LOS V-H"))
        assert (d.autocorr.a, d.autocorr.b, d.autocorr.c) == (1.0, 0.9, 0.05)
        assert d.k_range_db == (3.0, 7.0)

    def test_total_over_grid(self):
        scens = all_scenarios()
        assert len(scens) == 6
        k_ranges = set()
        triples = []
        absent = 0
        for scen in scens:
            d = lookup_default_params(scen)
            k_ranges.add((scen, d.k_range_db))
            if d.autocorr is None:
                absent += 1
                assert scen.environment is Environment.LOS_TO_NLOS
            else:
                triples.append((d.autocorr.a, d.autocorr.b, d.autocorr.c))
        assert len(k_ranges) == 6
        assert len(triples) == 4
        assert absent == 2

    def test_los_to_nlos_k_ranges(self):
        vv = lookup_default_params(Scenario.parse("LOS-to-NLOS V-V"))
        vh = lookup_default_params(Scenario.parse("LOS-to-NLOS V-H"))
        assert vv.k_range_db == (4.0, 7.0)
        assert vh.k_range_db == (6.0, 10.0)
        assert vv.autocorr is None and vh.autocorr is None


class TestOtherTypes:
    def test_array_geometry_defaults(self):
        g = ArrayGeometry(num_elements=20)
        assert g.spacing == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_elements=0),
            dict(num_elements=2, spacing=0.0),
            dict(num_elements=2, spacing=math.inf),
            dict(num_elements=2, spacing=math.nan),
        ],
    )
    def test_array_geometry_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ArrayGeometry(**kwargs)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, np.True_, "3"])
    def test_array_element_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="num_elements"):
            ArrayGeometry(num_elements=count)

    def test_numpy_integer_element_count(self):
        assert ArrayGeometry(num_elements=np.int32(4)).num_elements == 4

    def test_fading_model(self):
        r = FadingModel.rician(5.0)
        assert r.is_rician and r.label() == "rician5dB"
        assert FadingModel.rayleigh().label() == "rayleigh"
        with pytest.raises(ValueError):
            FadingModel(kind="rician")
        with pytest.raises(ValueError):
            FadingModel(kind="rayleigh", k_factor_db=3.0)
        with pytest.raises(ValueError):
            FadingModel(kind="rician", k_factor_db=math.inf)

    def test_autocorr_params_bounds(self):
        AutocorrParams(0.9, 1.0, -0.1)  # a - c = 1.0, allowed
        with pytest.raises(ValueError):
            AutocorrParams(0.9, 1.0, -0.2)  # a - c > 1
        with pytest.raises(ValueError):
            AutocorrParams(0.5, 1.0, 0.5)  # a - c = 0
        with pytest.raises(ValueError):
            AutocorrParams(-0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            AutocorrParams(0.9, -1.0, 0.0)
