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
# band budget


def _band(span_count=90, **overrides):
    # the 92-channel band at -2.9 dBm mean launch power
    kwargs = dict(
        channels=92,
        start_nm=1525.0,
        stop_nm=1616.0,
        mean_nf_db=1.4,
        nf_tilt_db=-5.7,
        mean_power_dbm=-2.9,
        signal_tilt_db=-2.0,
        spacing_hz=50e9,
        symbol_rate_hz=35e9,
        transceiver_snr_db=20.0,
    )
    return lb.band_budget(hybrid_span(), span_count, **{**kwargs, **overrides})


def test_band_model_validation():
    with pytest.raises(ValueError):
        _band(channels=0)
    with pytest.raises(ValueError):
        _band(start_nm=1550.0, stop_nm=1540.0)
    with pytest.raises(ValueError):
        _band(start_nm=1550.0, stop_nm=1550.0)
    # one channel sits at start_nm and needs no ordered edges
    assert [r["wavelength"] for r in _band(channels=1, start_nm=1550.0, stop_nm=1550.0)] == [1550.0]


_NAN = math.nan


def _segment(**overrides):
    kwargs = dict(length_m=50e3, attenuation_db_km=0.2, dispersion_ps_nm_km=17.0, effective_area_um2=80.0)
    return SpanSpec(segments=(FiberSegment(**{**kwargs, **overrides}),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: lb.combine_snr([20.0, _NAN]),
        lambda: lb.ase_snr(90, 10.72, 1.4, _NAN, 35e9, 193.4e12),
        lambda: lb.ase_snr(90, 10.72, _NAN, -2.9, 35e9, 193.4e12),
        lambda: lb.ase_snr(90, _NAN, 1.4, -2.9, 35e9, 193.4e12),
        lambda: lb.ase_snr(90, 10.72, 1.4, -2.9, _NAN, 193.4e12),
        lambda: lb.ase_snr(90, 10.72, 1.4, -2.9, 35e9, _NAN),
        lambda: lb.gn_nli_estimate(hybrid_span(), math.inf),
        lambda: lb.gn_nli_estimate(hybrid_span(), _NAN),
        lambda: lb.gn_nli_estimate(hybrid_span(), 0.0, channel_count=5, spacing_hz=_NAN),
        lambda: lb.gn_nli_estimate(hybrid_span(), 0.0, symbol_rate_hz=_NAN),
        lambda: lb.gn_nli_estimate(_segment(attenuation_db_km=_NAN), 0.0),
        lambda: lb.gn_nli_estimate(_segment(dispersion_ps_nm_km=_NAN), 0.0),
        lambda: lb.gn_nli_estimate(_segment(effective_area_um2=_NAN), 0.0),
        lambda: lb.gn_nli_estimate(_segment(nonlinear_index_n2=_NAN), 0.0),
        lambda: lb.gn_nli_estimate(_segment(reference_wavelength_nm=_NAN), 0.0),
        lambda: _band(mean_nf_db=_NAN),
        lambda: _band(start_nm=_NAN),
        lambda: _band(channels=1, start_nm=_NAN),
    ],
    ids=[
        "combine_nan",
        "ase_power_nan",
        "ase_nf_nan",
        "ase_loss_nan",
        "ase_bandwidth_nan",
        "ase_frequency_nan",
        "gn_power_inf",
        "gn_power_nan",
        "gn_spacing_nan",
        "gn_symbol_rate_nan",
        "gn_segment_loss_nan",
        "gn_segment_dispersion_nan",
        "gn_segment_area_nan",
        "gn_segment_n2_nan",
        "gn_segment_wavelength_nan",
        "band_nf_nan",
        "band_start_nan",
        "band_single_channel_start_nan",
    ],
)
def test_non_finite_inputs_rejected(call):
    # each of these read the 60 dB "noise-free" cap: min(60.0, nan) is 60.0
    with pytest.raises(ValueError):
        call()


def test_default_band_model_tilt_anchors():
    rows = _band()
    ase = np.array([r["ase_snr"] for r in rows])
    assert len(rows) == 92
    assert rows[0]["wavelength"] == 1525.0
    assert rows[-1]["wavelength"] == 1616.0
    # ASE follows power minus noise figure: the launch tilt (-2.0 dB) less
    # the noise-figure tilt (-5.7 dB) end to end, the means at the center
    assert ase[-1] - ase[0] == pytest.approx(-2.0 - (-5.7), abs=1e-9)
    center = lb.ase_snr(90, hybrid_span().loss_db, 1.4, -2.9, 35e9, C0 / (1570.5e-9))
    assert ase.mean() == pytest.approx(center, abs=1e-9)


def test_band_profile_rises_toward_long_wavelengths():
    # the noise-figure tilt (-5.7 dB) outweighs the launch tilt (-2 dB)
    snrs = [r["ase_snr"] for r in _band(channels=16)]
    assert all(b > a for a, b in zip(snrs, snrs[1:]))
    assert snrs[-1] > snrs[0] + 3.0


def test_band_profile_flat_model_reduces_to_scalar():
    rows = _band(channels=5, nf_tilt_db=0.0, signal_tilt_db=0.0)
    center = 0.5 * (rows[0]["wavelength"] + rows[-1]["wavelength"])
    scalar = lb.ase_snr(90, hybrid_span().loss_db, 1.4, -2.9, 35e9, C0 / (center * 1e-9))
    assert all(r["ase_snr"] == scalar for r in rows)


def test_band_profile_wavelengths_echo_grid():
    rows = _band(span_count=9, channels=7)
    assert [r["wavelength"] for r in rows] == np.linspace(1525.0, 1616.0, 7).tolist()


def test_band_nli_column_is_the_estimate_over_all_channels():
    span = hybrid_span()
    rows = _band(channels=11)
    powers = -2.9 - 2.0 * np.linspace(-0.5, 0.5, 11)
    for row, power in zip(rows, powers.tolist()):
        assert row["nli_snr"] == lb.gn_nli_estimate(
            span, power, channel_count=11, spacing_hz=50e9, symbol_rate_hz=35e9, span_count=90
        )


def test_band_total_adds_the_transceiver_term():
    for row, clean in zip(_band(channels=5), _band(channels=5, transceiver_snr_db=math.inf)):
        ase, nli = row["ase_snr"], row["nli_snr"]
        assert row["total_snr"] == lb.combine_snr([ase, nli, 20.0])
        assert clean["total_snr"] == lb.combine_snr([ase, nli])
