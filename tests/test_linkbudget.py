"""Analytical link budget tests.

Anchor values were hand-evaluated from the formulas before being frozen
here: 90 spans of 10.72 dB loss with 1.4 dB noise figure at -2.9 dBm
launch in 35 GHz at 193.4 THz give P/(90 F G h nu B) = 18.9198 dB, and
reciprocal combination of 18.9 dB with a 20 dB transceiver gives
16.4050 dB.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.constants import c as C0

from shapelink import linkbudget as lb
from shapelink.channel import FiberSegment, SpanSpec, hybrid_span
from shapelink.errors import ModelDomainError


# ---------------------------------------------------------------------------
# amplifier-noise accumulation


def test_ase_snr_90_span_anchor():
    snr = lb.ase_snr(90, 10.72, 1.4, -2.9, 35e9, 193.4e12)
    assert snr == pytest.approx(18.9198, abs=1e-3)
    assert 18.7 <= snr <= 19.1


def test_ase_snr_span_doubling_is_3db():
    base = lb.ase_snr(45, 10.72, 1.4, -2.9, 35e9, 193.4e12)
    assert lb.ase_snr(90, 10.72, 1.4, -2.9, 35e9, 193.4e12) == pytest.approx(
        base - 10.0 * math.log10(2.0), abs=1e-12
    )


def test_ase_snr_cap_engages_on_quiet_link():
    assert lb.ase_snr(1, 0.0, 0.0, 30.0, 35e9, 193.4e12) == 60.0


def test_ase_snr_linear_in_power():
    lo = lb.ase_snr(9, 10.72, 1.4, -5.0, 35e9, 193.4e12)
    hi = lb.ase_snr(9, 10.72, 1.4, -2.0, 35e9, 193.4e12)
    assert hi - lo == pytest.approx(3.0, abs=1e-12)


def test_ase_snr_validation():
    with pytest.raises(ValueError):
        lb.ase_snr(0, 10.72, 1.4, 0.0, 35e9, 193.4e12)
    with pytest.raises(ValueError):
        lb.ase_snr(1, 10.72, 1.4, 0.0, 0.0, 193.4e12)
    with pytest.raises(ValueError):
        lb.ase_snr(1, 10.72, 1.4, 0.0, 35e9, -1.0)


# ---------------------------------------------------------------------------
# reciprocal combination


def test_combine_singleton_is_identity():
    assert lb.combine_snr([17.3]) == pytest.approx(17.3, abs=1e-12)


def test_combine_ignores_infinite_contribution():
    assert lb.combine_snr([20.0, float("inf")]) == 20.0
    assert lb.combine_snr([float("inf"), float("inf")]) == 60.0


def test_combine_hand_anchor():
    # 10^1.89 = 77.625; 1/(1/77.625 + 1/100) = 43.70 -> 16.405 dB
    assert lb.combine_snr([18.9, 20.0]) == pytest.approx(16.4050, abs=1e-3)


def test_combine_never_exceeds_smallest():
    rng = np.random.default_rng(4)
    for _ in range(20):
        vals = list(rng.uniform(5.0, 40.0, size=rng.integers(2, 6)))
        total = lb.combine_snr(vals)
        assert total < min(vals)


def test_combine_permutation_invariant():
    assert lb.combine_snr([18.9, 20.0]) == lb.combine_snr([20.0, 18.9])


def test_combine_requires_input():
    with pytest.raises(ValueError):
        lb.combine_snr([])


def test_total_budget_upper_bound():
    # full budget at the 90-span operating point stays below 16.5 dB,
    # and adding any interference term only lowers it
    ase = lb.ase_snr(90, 10.72, 1.4, -2.9, 35e9, 193.4e12)
    two = lb.combine_snr([ase, 20.0])
    assert two <= 16.5
    assert lb.combine_snr([ase, 20.0, 25.0]) < two


# ---------------------------------------------------------------------------
# closed-form nonlinear interference


def test_gn_power_cubic_law():
    span = hybrid_span()
    lo = lb.gn_nli_estimate(span, -3.0, span_count=9)
    hi = lb.gn_nli_estimate(span, -2.0, span_count=9)
    assert hi - lo == pytest.approx(-2.0, abs=1e-9)


def test_gn_span_count_accumulates_incoherently():
    span = hybrid_span()
    one = lb.gn_nli_estimate(span, 0.0, span_count=1)
    nine = lb.gn_nli_estimate(span, 0.0, span_count=9)
    assert one - nine == pytest.approx(10.0 * math.log10(9.0), abs=1e-9)


def test_gn_more_channels_more_interference():
    span = hybrid_span()
    single = lb.gn_nli_estimate(span, 0.0, channel_count=1)
    five = lb.gn_nli_estimate(span, 0.0, channel_count=5, spacing_hz=50e9)
    assert five < single


def test_gn_zero_kerr_caps():
    linear = [dataclasses.replace(seg, nonlinear_index_n2=0.0) for seg in hybrid_span().segments]
    assert lb.gn_nli_estimate(SpanSpec(segments=linear), 3.0) == 60.0


def test_gn_zero_dispersion_rejected():
    span = SpanSpec(segments=(FiberSegment(50e3, 0.2, 0.0, 80.0),))
    with pytest.raises(ModelDomainError):
        lb.gn_nli_estimate(span, 0.0)


def test_gn_lossless_segment_finite():
    span = SpanSpec(segments=(FiberSegment(50e3, 0.0, 17.0, 80.0),))
    snr = lb.gn_nli_estimate(span, 0.0)
    assert math.isfinite(snr)
    assert snr < 60.0


def test_gn_validation():
    span = hybrid_span()
    with pytest.raises(ValueError):
        lb.gn_nli_estimate(span, 0.0, channel_count=0)
    with pytest.raises(ValueError):
        lb.gn_nli_estimate(span, 0.0, symbol_rate_hz=0.0)


# ---------------------------------------------------------------------------
# band model


def test_band_model_validation():
    with pytest.raises(ValueError):
        lb.BandModel((1550.0, 1540.0), (1.4, 1.4), (0.0, 0.0))
    with pytest.raises(ValueError):
        lb.BandModel((1540.0, 1550.0), (1.4,), (0.0, 0.0))
    with pytest.raises(ValueError):
        lb.BandModel((), (), ())


_NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        lambda: lb.combine_snr([20.0, _NAN]),
        lambda: lb.ase_snr(90, 10.72, 1.4, _NAN, 35e9, 193.4e12),
        lambda: lb.ase_snr(90, 10.72, _NAN, -2.9, 35e9, 193.4e12),
        lambda: lb.ase_snr(90, _NAN, 1.4, -2.9, 35e9, 193.4e12),
        lambda: lb.gn_nli_estimate(hybrid_span(), math.inf),
        lambda: lb.gn_nli_estimate(hybrid_span(), _NAN),
        lambda: lb.gn_nli_estimate(SpanSpec(segments=(FiberSegment(50e3, _NAN, 17.0, 80.0),)), 0.0),
        lambda: lb.band_snr_profile(
            lb.BandModel((1540.0, 1550.0), (1.4, _NAN), (0.0, 0.0)), 90, hybrid_span()
        ),
    ],
    ids=[
        "combine_nan",
        "ase_power_nan",
        "ase_nf_nan",
        "ase_loss_nan",
        "gn_power_inf",
        "gn_power_nan",
        "gn_segment_loss_nan",
        "band_nf_nan",
    ],
)
def test_non_finite_inputs_rejected(call):
    # each of these read the 60 dB "noise-free" cap: min(60.0, nan) is 60.0
    with pytest.raises(ValueError):
        call()


def test_default_band_model_tilt_anchors():
    model = lb.default_band_model(channels=92)
    nf = np.array(model.nf_curve)
    power = np.array(model.per_channel_power_dbm)
    assert model.channel_count == 92
    assert model.wavelength_grid[0] == 1525.0
    assert model.wavelength_grid[-1] == 1616.0
    assert nf.mean() == pytest.approx(1.4, abs=1e-12)
    assert nf[-1] - nf[0] == pytest.approx(-5.7, abs=1e-12)
    assert power.mean() == pytest.approx(-2.9, abs=1e-12)
    assert power[-1] - power[0] == pytest.approx(-2.0, abs=1e-12)


def test_band_profile_rises_toward_long_wavelengths():
    # the noise-figure tilt (-5.7 dB) outweighs the launch tilt (-2 dB)
    profile = lb.band_snr_profile(lb.default_band_model(channels=16), 90, hybrid_span())
    snrs = [s for _, s in profile]
    assert all(b > a for a, b in zip(snrs, snrs[1:]))
    assert snrs[-1] > snrs[0] + 3.0


def test_band_profile_flat_model_reduces_to_scalar():
    model = lb.default_band_model(channels=5, nf_tilt_db=0.0, signal_tilt_db=0.0)
    span = hybrid_span()
    profile = lb.band_snr_profile(model, 90, span)
    center = 0.5 * (model.wavelength_grid[0] + model.wavelength_grid[-1])
    scalar = lb.ase_snr(90, span.loss_db, 1.4, -2.9, 35e9, C0 / (center * 1e-9))
    assert all(s == scalar for _, s in profile)


def test_band_profile_wavelengths_echo_grid():
    model = lb.default_band_model(channels=7)
    profile = lb.band_snr_profile(model, 9, hybrid_span())
    assert [w for w, _ in profile] == list(model.wavelength_grid)
