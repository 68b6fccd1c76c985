import math

import numpy as np
import pytest

from mmwchan.core import (
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    Environment,
    FadingModel,
    Polarization,
    Scenario,
    all_scenarios,
    lookup_default_params,
)


def cir(power=1.0, phase=0.0, delay=0.0, aod=(0.0, 0.0), aoa=(0.0, 0.0)):
    """A one-component CIR."""
    return ChannelImpulseResponse(
        delays=[delay], powers=[power], phases=[phase], aod=[aod], aoa=[aoa], scenario=Scenario.parse("NLOS V-V")
    )


class TestChannelImpulseResponse:
    def test_valid(self):
        c = cir(power=0.5, phase=1.0, delay=10e-9, aod=(3.0, 0.2), aoa=(0.1, -0.3))
        assert c.num_components == 1
        assert c.aod.tolist() == [[3.0, 0.2]]
        with pytest.raises(ValueError):
            c.powers[0] = 1.0  # read-only

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
        with pytest.raises(ValueError, match="component 0"):
            cir(**kwargs)

    def test_empty_cir_rejected(self):
        with pytest.raises(ValueError, match="at least one component"):
            ChannelImpulseResponse(
                delays=[], powers=[], phases=[], aod=np.zeros((0, 2)), aoa=np.zeros((0, 2)),
                scenario=Scenario.parse("NLOS V-V"),
            )

    def test_descending_delays_rejected(self):
        with pytest.raises(ValueError, match="component 1: delay"):
            ChannelImpulseResponse(
                delays=[10e-9, 5e-9], powers=[0.5, 0.5], phases=[0.0, 0.0], aod=[(0.0, 0.0)] * 2,
                aoa=[(0.0, 0.0)] * 2, scenario=Scenario.parse("NLOS V-V"),
            )

    def test_first_bad_component_named(self):
        with pytest.raises(ValueError, match="component 1: aoa elevation"):
            ChannelImpulseResponse(
                delays=[0.0, 1e-9, 2e-9], powers=[0.5, 0.3, -0.2], phases=[0.0] * 3, aod=[(0.0, 0.0)] * 3,
                aoa=[(0.0, 0.0), (0.0, 2.0), (0.0, 0.0)], scenario=Scenario.parse("NLOS V-V"),
            )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="aod must have shape"):
            ChannelImpulseResponse(
                delays=[0.0, 1e-9], powers=[0.5, 0.5], phases=[0.0, 0.0], aod=[(0.0, 0.0)],
                aoa=[(0.0, 0.0)] * 2, scenario=Scenario.parse("NLOS V-V"),
            )


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
            dict(num_elements=3, spacing=1e308),  # the farthest lag, 2e308, overflows
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
        assert not FadingModel.rayleigh().is_rician and FadingModel.rayleigh().k_factor_db is None
        with pytest.raises(ValueError):
            FadingModel.rician(math.inf)

    @pytest.mark.parametrize("k_db", [120.5, -60.5, math.nan, -math.inf, 1e308])
    def test_rician_k_outside_range_rejected(self, k_db):
        # rejected, not clamped to the range
        with pytest.raises(ValueError, match=r"\[-60, 120\] dB"):
            FadingModel.rician(k_db)

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

    @pytest.mark.parametrize("abc", [(0.9, math.inf, 0.0), (math.inf, 1.0, math.inf), (0.9, math.nan, 0.0)])
    def test_autocorr_params_must_be_finite(self, abc):
        # b = inf would make eval_autocorr NaN at zero separation
        with pytest.raises(ValueError, match="finite"):
            AutocorrParams(*abc)
