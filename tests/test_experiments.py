"""Config parsing/validation, run modes, CSV conventions, and the CLI."""

import dataclasses
import fnmatch
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from point_sets import natural_constellation

import shapelink
from shapelink import channel as ch
from shapelink import cli, constellation as cst, dsp, experiments as ex, fec, linkbudget
from shapelink.errors import ConfigurationError, DegenerateInputError, ShapelinkError


FULL_INI = """\
[experiment]
mode = gap_sweep
seed = 7
output = {out}

[constellation]
source = square64
design_snr_db = 11.0

[sweep]
snr_start_db = 10
snr_stop_db = 12
snr_step_db = 1
estimator = gh

[channel]
spans = 9
launch_power_dbm = -0.5
symbol_rate_hz = 35e9
channel_spacing_hz = 50e9

[fec]
rates = 1/2 3/5 2/3

[shape]
iterations = 20
add_markers = no
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _manifest(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# config parsing


def test_parse_full_config_maps_fields(tmp_path):
    cfg, diags = ex.parse_config(_write(tmp_path, FULL_INI.format(out=tmp_path)))
    assert diags == []
    assert cfg.mode == "gap_sweep"
    assert cfg.seed == 7
    assert cfg.output_dir == str(tmp_path)
    assert cfg.source == "square64"
    assert cfg.span_count == 9
    assert cfg.channel_spacing_hz == 50e9
    assert cfg.fec_rates == ("1/2", "3/5", "2/3")
    assert cfg.shape_iterations == 20
    assert cfg.add_markers is False


def test_parse_reports_unknown_section_and_key(tmp_path):
    path = _write(tmp_path, "[banana]\nx = 1\n\n[channel]\nbogus = 2\nspans = 3\n")
    cfg, diags = ex.parse_config(path)
    assert cfg is not None
    assert cfg.span_count == 3
    assert any(d.startswith("banana:") for d in diags)
    assert any(d.startswith("channel.bogus:") for d in diags)


def test_parse_reports_wrong_type_with_field_name(tmp_path):
    cfg, diags = ex.parse_config(_write(tmp_path, "[channel]\nspans = many\n"))
    assert cfg is not None
    assert len(diags) == 1
    assert diags[0].startswith("channel.spans:")
    assert "many" in diags[0]


def test_parse_reports_line_number_for_broken_syntax(tmp_path):
    path = _write(tmp_path, "[experiment]\nmode = shape\nnot a key value line\n")
    cfg, diags = ex.parse_config(path)
    assert cfg is None
    assert len(diags) == 1
    assert "line 3" in diags[0]


def test_parse_missing_file(tmp_path):
    cfg, diags = ex.parse_config(str(tmp_path / "absent.ini"))
    assert cfg is None
    assert len(diags) == 1


def test_readme_sample_config_loads_at_the_defaults(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    cfg, diags = ex.parse_config(_write(tmp_path, block))
    assert diags == []
    assert ex.validate_config(cfg) == []
    assert cfg == ex.ExperimentConfig()


def test_removed_equalizer_keys_are_unknown(tmp_path, capsys):
    path = _write(tmp_path, "[dsp]\nequalizer_taps = 19\n")
    assert ex.parse_config(path)[1] == ["dsp.equalizer_taps: unknown key"]
    assert cli.main(["validate", "--config", path]) == 1
    assert "dsp.equalizer_taps: unknown key" in capsys.readouterr().out
    # the band's transceiver SNR is [channel] transmitter_snr_db
    path = _write(tmp_path, "[band]\ntransceiver_snr_db = 20\n")
    assert ex.parse_config(path)[1] == ["band.transceiver_snr_db: unknown key"]


def test_schema_keys_and_config_fields_correspond():
    fields = dataclasses.fields(ex.ExperimentConfig)
    assert [name for name, _ in ex._INI_KEYS.values()] == [f.name for f in fields]
    assert ex._SECTIONS == {
        "experiment", "constellation", "sweep", "channel", "dsp", "fec", "band", "shape",
    }


def test_readme_ini_reference_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    documented, section = set(), None
    for line in block.splitlines():
        line = line.strip().lstrip(";").strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            documented.add((section, line.split("=", 1)[0].strip()))
    assert set(ex._INI_KEYS) <= documented


def test_readme_mode_table_lists_each_modes_columns_in_order(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = dict(re.findall(r"^\| `(\w+)` +\|[^|]*\| `([^`]*)` \|$", fh.read(), re.M))
    for mode in ex.MODES:
        cfg = ex.ExperimentConfig(mode=mode, output_dir=str(tmp_path / mode), **_SMALL_RUNS[mode])
        assert tuple(table[mode].split(", ")) == ex.run_experiment(cfg).columns, mode


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\nmode = fiber_e2e\nspans = 3\n",
        "[DEFAULT]\nspans = 3\n\n[channel]\nsymbols = 128\n",
    ],
)
def test_default_section_is_unknown_and_applies_nothing(tmp_path, capsys, text):
    path = _write(tmp_path, text)
    cfg, diags = ex.parse_config(path)
    assert diags == ["DEFAULT: unknown section"]
    assert cfg.mode == "gap_sweep"
    assert cfg.span_count == 9
    assert cli.main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out == "DEFAULT: unknown section\n"


def test_package_version_is_declared_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with warnings.catch_warnings():  # setuptools flags [tool.setuptools] as beta
        warnings.simplefilter("ignore")
        meta = pyprojecttoml.read_configuration(os.path.join(root, "pyproject.toml"))
    assert meta["project"]["version"] == shapelink.__version__
    assert meta["project"]["name"] == "shapelink"
    # every shipped constellation file is package data
    globs = meta["tool"]["setuptools"]["package-data"]["shapelink"]
    for fname in cst._BUILTIN_FILES.values():
        assert any(fnmatch.fnmatch(f"data/{fname}", g) for g in globs), fname


def test_parse_accepts_inf_transmitter_snr(tmp_path):
    cfg, diags = ex.parse_config(
        _write(tmp_path, "[channel]\ntransmitter_snr_db = inf\n")
    )
    assert diags == []
    assert math.isinf(cfg.transmitter_snr_db)


# ---------------------------------------------------------------------------
# validation


def test_validate_default_config_is_clean():
    assert ex.validate_config(ex.ExperimentConfig()) == []


def test_validate_missing_constellation_file_names_the_field(tmp_path):
    cfg = ex.ExperimentConfig(source=str(tmp_path / "nope.txt"))
    diags = ex.validate_config(cfg)
    assert len(diags) == 1
    assert diags[0].startswith("constellation.source:")


def test_validate_spacing_below_symbol_rate_is_grid_violation():
    cfg = ex.ExperimentConfig(mode="linkbudget", channel_spacing_hz=30e9, symbol_rate_hz=35e9)
    diags = ex.validate_config(cfg)
    assert len(diags) == 1
    assert diags[0].startswith("channel.channel_spacing_hz:")
    assert "grid" in diags[0]


def test_validate_empty_sweep_range():
    cfg = ex.ExperimentConfig(snr_start_db=10.0, snr_stop_db=5.0)
    diags = ex.validate_config(cfg)
    assert any(d.startswith("sweep.snr_stop_db:") for d in diags)


def test_validate_collects_multiple_diagnostics():
    cfg = ex.ExperimentConfig(mode="teleport", estimator="guess", span_count=0)
    diags = ex.validate_config(cfg)
    assert len(diags) == 3


def test_validate_rejects_bad_rate_strings():
    diags = ex.validate_config(ex.ExperimentConfig(fec_rates=("1/2", "fast")))
    assert any(d.startswith("fec.rates:") for d in diags)


def test_validate_accepts_constellation_from_file(tmp_path):
    path = tmp_path / "c.txt"
    cst.save_constellation(cst.load_builtin("square64"), str(path))
    assert ex.validate_config(ex.ExperimentConfig(source=str(path))) == []


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("ring_gain", 1.0, "shape.ring_gain"),
        ("ring_gain", math.inf, "shape.ring_gain"),
        ("ring_gain", math.nan, "shape.ring_gain"),
        ("papr_weight", math.nan, "shape.papr_weight"),
        ("cpe_block_length", 0, "dsp.cpe_block_length"),
        ("band_channels", 10_000_000, "band.channels"),
    ],
)
def test_validate_applies_the_library_conditions(field, value, key):
    diags = ex.validate_config(ex.ExperimentConfig(**{field: value}))
    assert [d.split(":", 1)[0] for d in diags] == [key]


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("papr_weight", math.inf, "shape.papr_weight"),
        ("snr_step_db", math.nan, "sweep.snr_step_db"),
        ("max_step_m", math.inf, "channel.max_step_m"),
        ("max_step_m", math.nan, "channel.max_step_m"),
        ("transmitter_snr_db", -math.inf, "channel.transmitter_snr_db"),
        ("transmitter_snr_db", math.nan, "channel.transmitter_snr_db"),
    ],
)
def test_validate_rejects_non_finite_floats(field, value, key):
    diags = ex.validate_config(ex.ExperimentConfig(**{field: value}))
    assert diags == [f"{key}: must be finite"]


def _edges(name, kind):
    """(accepted, rejected) values at the edges of a field's accepted values.

    For an interval: each closed end is accepted; the nearest value outside
    each end (the end itself when open, else the next integer or float) is
    rejected.  For choices: every choice is accepted, one unknown value not.
    """
    accepts = ex._ACCEPTS[name]
    if isinstance(accepts, tuple):
        return list(accepts), ["|".join(accepts)]
    low, high = (float(end) for end in accepts[1:-1].split(","))
    accepted, rejected = [], []
    for end, closed, outward in ((low, accepts[0] == "[", -1), (high, accepts[-1] == "]", 1)):
        if closed:
            accepted.append(kind(end))
            if math.isfinite(end):
                beyond = int(end) + outward if kind is int else math.nextafter(end, outward * math.inf)
                rejected.append(beyond)
        elif kind is float or math.isfinite(end):
            rejected.append(kind(end))
    return accepted, rejected


@pytest.mark.parametrize(
    "key", [key for key, (name, _) in ex._INI_KEYS.items() if ex._ACCEPTS[name] is not None],
    ids=lambda key: ".".join(key),
)
def test_each_field_accepts_its_declared_values_to_the_edge(key):
    name, kind = ex._INI_KEYS[key]
    accepted, rejected = _edges(name, kind)
    assert rejected
    for value in accepted:
        assert ex.validate_config(ex.ExperimentConfig(**{name: value})) == [], value
    for value in rejected:
        diags = ex.validate_config(ex.ExperimentConfig(**{name: value}))
        assert len([d for d in diags if d.startswith(f"{'.'.join(key)}:")]) == 1, (value, diags)


_FLOAT_KEYS = [key for key, (_, kind) in ex._INI_KEYS.items() if kind is float]

# every mode at a size that runs in well under a second
_SMALL_RUNS = {
    "shape": dict(source="square64", shape_iterations=3),
    "gap_sweep": dict(snr_start_db=10.0, snr_stop_db=11.0, mc_symbols=1000),
    "awgn_e2e": dict(source="square64", snr_start_db=10.0, snr_stop_db=11.0, symbols=512),
    "fiber_e2e": dict(source="square64", span_count=1, symbols=256, oversampling=2),
    "linkbudget": dict(band_channels=3),
}


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(_FLOAT_KEYS),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    mode=st.sampled_from(ex.MODES),
)
@example(key=("channel", "transmitter_snr_db"), value=math.inf, mode="fiber_e2e")
@example(key=("shape", "papr_weight"), value=math.inf, mode="shape")
@example(key=("sweep", "snr_step_db"), value=math.nan, mode="gap_sweep")
@example(key=("channel", "max_step_m"), value=math.inf, mode="fiber_e2e")
@example(key=("channel", "max_step_m"), value=math.nan, mode="fiber_e2e")
def test_non_finite_float_is_named_or_runs(key, value, mode):
    section, name = key
    field = ex._INI_KEYS[key][0]
    with tempfile.TemporaryDirectory() as out:
        cfg = ex.ExperimentConfig(mode=mode, output_dir=out, **{**_SMALL_RUNS[mode], field: value})
        if any(d.startswith(f"{section}.{name}:") for d in ex.validate_config(cfg)):
            return
        rep = ex.run_experiment(cfg)
    if mode == "shape":  # a design is never worse than its input
        row = dict(zip(rep.columns, rep.rows[0]))
        assert row["gmi_shaped_2d"] >= row["gmi_initial_2d"]


def _accepted_edges(name, kind):
    """The values at the edges of what a field accepts: every choice, each
    closed end, and the nearest value inside each open end (the largest
    finite float inside an infinite one; an int has none there)."""
    accepts = ex._ACCEPTS[name]
    if isinstance(accepts, tuple):
        return list(accepts)
    low, high = (float(end) for end in accepts[1:-1].split(","))
    edges = []
    for end, closed, inward in ((low, accepts[0] == "[", 1), (high, accepts[-1] == "]", -1)):
        if closed:
            edges.append(kind(end))
        elif kind is float:
            edges.append(math.nextafter(end, inward * math.inf))
        elif math.isfinite(end):
            edges.append(int(end) + inward)
    return edges


_SWEEPS = {"gap_sweep": {}, "awgn_e2e": {}}
_CODED = {"awgn_e2e": {}, "fiber_e2e": {}}
_FIBER = {"fiber_e2e": {}}
_BUDGET = {"linkbudget": {}}
# the modes that read each field with declared values (``mode`` itself
# aside), with what a reduced run of that mode needs set to read it
_READERS = {
    "seed": {"shape": {}, "gap_sweep": dict(estimator="mc"), **_CODED},
    "design_snr_db": {"shape": {}},
    "snr_start_db": _SWEEPS,
    "snr_stop_db": _SWEEPS,
    "snr_step_db": _SWEEPS,
    "estimator": {"gap_sweep": {}},
    "mc_symbols": {"gap_sweep": dict(estimator="mc")},
    "span_count": {**_FIBER, **_BUDGET},
    "launch_power_dbm": {**_FIBER, **_BUDGET},
    "symbol_rate_hz": {**_CODED, **_BUDGET},
    "channel_spacing_hz": _BUDGET,
    "oversampling": _FIBER,
    "symbols": _CODED,
    "transmitter_snr_db": {**_FIBER, **_BUDGET},
    "linewidth_hz": _FIBER,
    "max_step_m": _FIBER,
    "rrc_rolloff": _FIBER,
    "cpe_block_length": {"fiber_e2e": dict(linewidth_hz=100e3)},
    "dbp_steps_per_span": _FIBER,
    "bch_overhead": _CODED,
    "ber_threshold": _CODED,
    "band_channels": _BUDGET,
    "mean_nf_db": _BUDGET,
    "nf_tilt_db": _BUDGET,
    "signal_tilt_db": _BUDGET,
    "band_start_nm": _BUDGET,
    "band_stop_nm": _BUDGET,
    "shape_iterations": {"shape": {}},
    "papr_weight": {"shape": {}},
    "ring_gain": {"shape": dict(add_markers=True)},
}

# (INI key, edge value, mode, what else the run sets) for every declared edge
_EDGE_RUNS = [
    (key, value, mode, extra)
    for key, (name, kind) in ex._INI_KEYS.items()
    if ex._ACCEPTS[name] is not None
    for value in _accepted_edges(name, kind)
    for mode, extra in ({value: {}} if name == "mode" else _READERS[name]).items()
]


def test_every_field_with_declared_values_names_its_readers():
    declared = {name for name, accepts in ex._ACCEPTS.items() if accepts is not None}
    assert set(_READERS) == declared - {"mode"}


@settings(max_examples=150, deadline=None)
@given(run=st.sampled_from(_EDGE_RUNS))
@example(run=(("channel", "symbol_rate_hz"), 193.4e12, "fiber_e2e", {}))
@example(run=(("channel", "linewidth_hz"), sys.float_info.max, "fiber_e2e", {}))
@example(run=(("shape", "papr_weight"), sys.float_info.max, "shape", {}))
def test_declared_edge_runs_or_fails_loudly(run):
    # an fftfreq ZeroDivisionError, a NaN phase walk and a design worse than
    # its input ran at the last three before they were mended
    key, value, mode, extra = run
    name = ex._INI_KEYS[key][0]
    with tempfile.TemporaryDirectory() as out:
        values = {"mode": mode, "output_dir": out, **_SMALL_RUNS[mode], **extra, name: value}
        cfg = ex.ExperimentConfig(**values)
        if ex.validate_config(cfg):
            return
        try:
            rep = ex.run_experiment(cfg)
        except ShapelinkError:
            return
    if mode == "shape" and not cfg.add_markers:  # an ascent never ends below its start
        row = dict(zip(rep.columns, rep.rows[0]))
        assert row["gmi_shaped_2d"] >= row["gmi_initial_2d"]


_any_float = st.floats(-2.0, 3.0) | st.floats()


@settings(max_examples=200, deadline=None)
@given(
    dsp_values=st.fixed_dictionaries({
        "rrc_rolloff": _any_float,
        "cpe_block_length": st.integers(-1, 128),
        "dbp_steps_per_span": st.integers(-1, 8),
    }),
    shape_values=st.fixed_dictionaries({
        "shape_iterations": st.integers(-1, 500),
        "papr_weight": _any_float,
        "add_markers": st.booleans(),
        "ring_gain": st.floats(0.5, 2.0) | st.floats(),
    }),
)
def test_validated_dsp_and_shape_sections_run(dsp_values, shape_values):
    cfg = ex.ExperimentConfig(**dsp_values, **shape_values)
    if any(d.startswith(("dsp.", "shape.")) for d in ex.validate_config(cfg)):
        return
    dsp.vv_cpe(dsp.SymbolFrame(np.ones((2, 8), complex)), cst.square64(), cfg.cpe_block_length)
    cst.add_ring_markers(cst.square64(), cfg.ring_gain)


# ---------------------------------------------------------------------------
# gap_sweep mode and CSV conventions


def _sweep_cfg(out, **kw):
    base = dict(
        mode="gap_sweep",
        output_dir=str(out),
        snr_start_db=10.0,
        snr_stop_db=12.0,
        snr_step_db=1.0,
    )
    base.update(kw)
    return ex.ExperimentConfig(**base)


def test_gap_sweep_full_range_columns_and_anchor(tmp_path):
    cfg = _sweep_cfg(tmp_path, snr_start_db=0.0, snr_stop_db=20.0)
    rep = ex.run_experiment(cfg)
    assert rep.columns == ("snr_db", "gap_square", "gap_awgn", "gap_papr", "gap_system")
    assert len(rep.rows) == 21
    snr, gaps = rep.rows[11][0], rep.rows[11][1:]
    assert snr == 11.0
    assert abs(gaps[0] - 0.5772158524) < 1e-9
    assert abs(gaps[3] - 0.3364498955) < 1e-9
    assert all(g > 0 for row in rep.rows for g in row[1:])


def test_gap_sweep_csv_is_bit_identical_across_runs(tmp_path):
    a = ex.run_experiment(_sweep_cfg(tmp_path / "a"))
    b = ex.run_experiment(_sweep_cfg(tmp_path / "b"))
    bytes_a = pathlib.Path(a.outputs[0]).read_bytes()
    bytes_b = pathlib.Path(b.outputs[0]).read_bytes()
    assert bytes_a == bytes_b


def test_import_leaves_concurrent_futures_unloaded():
    # every run is serial, so nothing in the package imports a pool
    code = "import sys, shapelink; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shapelink.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_csv_format_header_digits_newline(tmp_path):
    rep = ex.run_experiment(_sweep_cfg(tmp_path))
    text = pathlib.Path(rep.outputs[0]).read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "snr_db,gap_square,gap_awgn,gap_papr,gap_system"
    for line in lines[1:]:
        for tok in line.split(","):
            assert tok == format(float(tok), ".9g")


def test_empty_sweep_errors_with_no_outputs(tmp_path):
    out = tmp_path / "never"
    cfg = _sweep_cfg(out, snr_start_db=10.0, snr_stop_db=5.0)
    with pytest.raises(ConfigurationError):
        ex.run_experiment(cfg)
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep",
    [
        dict(snr_step_db=5e-324),  # (stop - start) / step overflows
        dict(snr_step_db=1e-9),  # 2e10 points
        dict(snr_start_db=-1e308, snr_stop_db=1e308),  # stop - start overflows
    ],
    ids=["subnormal_step", "tiny_step", "huge_range"],
)
def test_oversized_sweep_is_rejected_before_anything_runs(tmp_path, monkeypatch, sweep):
    def no_sweep(cfg):
        raise AssertionError("sweep points built")

    monkeypatch.setattr(ex, "_sweep_points", no_sweep)
    out = tmp_path / "never"
    cfg = ex.ExperimentConfig(output_dir=str(out), **sweep)
    diags = ex.validate_config(cfg)
    assert len(diags) == 1 and diags[0].startswith("sweep.snr_step_db:"), diags
    with pytest.raises(ConfigurationError):
        ex.run_experiment(cfg)
    assert not out.exists()


@pytest.mark.parametrize(
    "link",
    [dict(launch_power_dbm=60.0), dict(max_step_m=0.01)],
    ids=["launch_60_dbm", "step_1_cm"],
)
def test_oversized_split_step_plan_is_rejected_before_anything_runs(tmp_path, monkeypatch, link):
    # both plan millions of split steps per span, each under the 1e7 limit
    def no_link(*args, **kwargs):
        raise AssertionError("link propagated")

    monkeypatch.setattr(ex.ch, "propagate_link", no_link)
    out = tmp_path / "never"
    cfg = ex.ExperimentConfig(mode="fiber_e2e", output_dir=str(out), **link)
    diags = ex.validate_config(cfg)
    assert len(diags) == 1 and diags[0].startswith("channel."), diags
    assert "cap" in diags[0]
    with pytest.raises(ConfigurationError):
        ex.run_experiment(cfg)
    assert not out.exists()


@pytest.mark.parametrize("power_dbm, linear", [(-4000.0, "0.0"), (4000.0, "inf")])
def test_launch_power_that_is_no_watts_is_reported_on_its_key(power_dbm, linear):
    # unchecked, -4000 dBm would plan a link and launch an all-zero field
    cfg = ex.ExperimentConfig(mode="fiber_e2e", launch_power_dbm=power_dbm)
    assert ex.validate_config(cfg) == [
        f"channel.launch_power_dbm: not expressible in watts: {power_dbm} dBm is {linear} "
        "on the linear scale"
    ]


@pytest.mark.parametrize(
    "steps, message",
    [(100_000_000, "DBP plan fails: 5.714e+07 split steps exceed"), (100_000, "x cap")],
    ids=["over_the_step_limit", "over_the_work_cap"],
)
def test_oversized_dbp_plan_is_reported_on_the_dbp_key(steps, message):
    # both read as channel.launch_power_dbm diagnostics, the first without
    # saying the steps were DBP's
    cfg = ex.ExperimentConfig(mode="fiber_e2e", dbp_steps_per_span=steps)
    diags = ex.validate_config(cfg)
    assert len(diags) == 1 and diags[0].startswith("dsp.dbp_steps_per_span: "), diags
    assert message in diags[0]


@pytest.mark.parametrize(
    "values, key, readers",
    [
        (dict(symbol_rate_hz=64e9), "channel.channel_spacing_hz", {"linkbudget"}),
        (dict(band_start_nm=1700.0), "band.stop_nm", {"linkbudget"}),
        (dict(fec_matrix="no-such.alist"), "fec.matrix", {"awgn_e2e"}),
    ],
    ids=["spacing", "band_edges", "matrix"],
)
def test_checks_run_only_in_the_modes_that_read_their_keys(values, key, readers):
    # each rejected every mode, though only the readers read the key
    for mode in ex.MODES:
        diags = ex.validate_config(ex.ExperimentConfig(mode=mode, **values))
        assert [d.split(":", 1)[0] for d in diags] == ([key] if mode in readers else []), mode


@pytest.mark.parametrize(
    "draws, key",
    [
        (dict(mode="awgn_e2e", symbols=10**9), "channel.symbols"),
        (dict(mode="awgn_e2e", symbols=16384 * 1000 + 1), "channel.symbols"),
        (dict(mode="gap_sweep", estimator="mc", mc_symbols=10**12), "sweep.mc_symbols"),
        (dict(mode="gap_sweep", estimator="mc", mc_symbols=10**9 + 1), "sweep.mc_symbols"),
    ],
    ids=["awgn_1e9_symbols", "awgn_just_over", "mc_1e12_samples", "mc_just_over"],
)
def test_oversized_sweep_draws_are_rejected_before_anything_runs(tmp_path, monkeypatch, draws, key):
    # 21 sweep points of more than 1000 x the default samples per point
    def no_draws(*args, **kwargs):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(ex, "_add_awgn", no_draws)
    monkeypatch.setattr(ex.cst, "gap_to_capacity", no_draws)
    out = tmp_path / "never"
    cfg = ex.ExperimentConfig(output_dir=str(out), **draws)
    diags = ex.validate_config(cfg)
    assert len(diags) == 1 and diags[0].startswith(f"{key}:"), diags
    assert "cap" in diags[0]
    with pytest.raises(ConfigurationError):
        ex.run_experiment(cfg)
    assert not out.exists()


def test_sweep_draw_cap_admits_its_edges():
    # 1000 x the defaults' draws exactly, and Gauss-Hermite sweeps draw nothing
    for draws in (
        dict(mode="awgn_e2e", symbols=16384 * 1000),
        dict(mode="gap_sweep", estimator="mc", mc_symbols=10**9),
        dict(mode="gap_sweep", estimator="gh", mc_symbols=10**12),
        dict(mode="linkbudget", symbols=10**9),
    ):
        assert ex.validate_config(ex.ExperimentConfig(**draws)) == [], draws


def test_split_step_cap_admits_the_fine_step_references():
    # the 100 m references of the 9-span link and of the paper's 90 spans
    for spans in (9, 90):
        cfg = ex.ExperimentConfig(mode="fiber_e2e", span_count=spans, max_step_m=100.0)
        assert ex.validate_config(cfg) == []


def test_invalid_workers_rejected(tmp_path):
    # only workers=1 runs: every experiment is serial
    assert ex.run_experiment(_sweep_cfg(tmp_path / "one"), workers=1).rows
    for workers in (0, 2):
        out = tmp_path / f"never{workers}"
        with pytest.raises(ConfigurationError):
            ex.run_experiment(_sweep_cfg(out), workers=workers)
        assert not out.exists()


# ---------------------------------------------------------------------------
# manifest


def test_manifest_written_on_success(tmp_path):
    rep = ex.run_experiment(_sweep_cfg(tmp_path, seed=5))
    man = _manifest(rep.manifest_path)
    assert man["status"] == "ok"
    assert man["error"] is None
    assert man["mode"] == "gap_sweep"
    assert man["seed"] == 5
    assert len(man["config_sha256"]) == 64
    assert man["wall_time_s"] >= 0
    assert "gap_sweep.csv" in man["outputs"]
    assert man["package_version"] == shapelink.__version__


def test_manifest_written_on_runtime_failure_with_no_partial_csv(tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text("this is not a constellation\n", encoding="utf-8")
    out = tmp_path / "run"
    cfg = ex.ExperimentConfig(
        mode="shape", output_dir=str(out), source=str(bad), shape_iterations=2
    )
    with pytest.raises(ValueError):
        ex.run_experiment(cfg)
    man = _manifest(out / "manifest.json")
    assert man["status"] == "failed"
    assert man["error"]
    assert man["outputs"] == []
    assert not (out / "shape.csv").exists()
    assert not (out / "shape.csv.tmp").exists()


@pytest.mark.parametrize(
    "band",
    [
        dict(signal_tilt_db=1e6),  # the edge channel's power underflows to 0 W
        dict(launch_power_dbm=-1e6),
        dict(signal_tilt_db=-1e6),  # ... or overflows
        dict(launch_power_dbm=1e6),
        dict(mean_nf_db=1e6),  # the noise figure overflows
        dict(mean_nf_db=-1e6),  # ... or underflows to 0
        dict(nf_tilt_db=1e6),
        dict(launch_power_dbm=1200.0),  # the interference density's cube overflows
        dict(mean_nf_db=3000.0, launch_power_dbm=-3000.0),  # the ASE SNR underflows
        dict(transmitter_snr_db=-1e6),  # the transceiver noise overflows
    ],
    ids=lambda band: ",".join(f"{k}={v:g}" for k, v in band.items()),
)
def test_linkbudget_at_float_range_edges_fails_loudly(tmp_path, band):
    cfg = ex.ExperimentConfig(mode="linkbudget", output_dir=str(tmp_path), **band)
    assert ex.validate_config(cfg) == []
    with pytest.raises(DegenerateInputError):
        ex.run_experiment(cfg)
    man = _manifest(tmp_path / "manifest.json")
    assert man["status"] == "failed"
    assert man["error"].startswith("DegenerateInputError: ")
    assert not (tmp_path / "linkbudget.csv").exists()


@pytest.mark.parametrize(
    "edge",
    [
        dict(mode="gap_sweep", snr_start_db=3990.0, snr_stop_db=4000.0, snr_step_db=10.0),
        dict(mode="gap_sweep", snr_start_db=-4000.0, snr_stop_db=-3990.0, snr_step_db=10.0),
        # the metrics are NaN beyond the SNR limit of a noise variance
        dict(mode="gap_sweep", snr_start_db=-3080.0, snr_stop_db=-3080.0),
        dict(mode="gap_sweep", snr_start_db=3100.0, snr_stop_db=3100.0),
        dict(mode="awgn_e2e", snr_start_db=3990.0, snr_stop_db=4000.0, snr_step_db=10.0),
        dict(mode="awgn_e2e", snr_start_db=-4000.0, snr_stop_db=-4000.0),
        dict(mode="shape", design_snr_db=4000.0, shape_iterations=5),
        dict(mode="fiber_e2e", transmitter_snr_db=-4000.0, span_count=1, oversampling=2),
    ],
    ids=lambda edge: ",".join(f"{k}={v}" for k, v in edge.items()),
)
def test_snr_at_float_range_edges_fails_loudly(tmp_path, edge):
    # an SNR whose noise variance or capacity is 0 or not finite
    cfg = ex.ExperimentConfig(output_dir=str(tmp_path), symbols=256, **edge)
    assert ex.validate_config(cfg) == []
    with pytest.raises(DegenerateInputError):
        ex.run_experiment(cfg)
    man = _manifest(tmp_path / "manifest.json")
    assert man["status"] == "failed"
    assert man["error"].startswith("DegenerateInputError: ")
    assert not (tmp_path / f"{cfg.mode}.csv").exists()


def test_fiber_transmitter_snr_beyond_the_limit_adds_no_noise(tmp_path):
    rows = [
        ex.run_experiment(ex.ExperimentConfig(
            mode="fiber_e2e", output_dir=str(tmp_path / str(snr_db)), source="square64",
            span_count=1, symbols=256, oversampling=2, transmitter_snr_db=snr_db,
        )).rows
        for snr_db in (3100.0, math.inf)
    ]
    assert rows[0] == rows[1]


def test_seed_and_out_dir_overrides(tmp_path):
    cfg = _sweep_cfg(tmp_path / "ignored", seed=1)
    rep = ex.run_experiment(dataclasses.replace(cfg, seed=9), out_dir=str(tmp_path / "used"))
    assert rep.manifest_path.startswith(str(tmp_path / "used"))
    man = _manifest(rep.manifest_path)
    assert man["seed"] == 9
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# shape mode


def test_shape_mode_writes_loadable_constellation_and_metrics(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="shape",
        output_dir=str(tmp_path),
        source="square64",
        shape_iterations=15,
    )
    rep = ex.run_experiment(cfg)
    row = dict(zip(rep.columns, rep.rows[0]))
    assert row["gmi_shaped_2d"] >= row["gmi_initial_2d"]
    assert row["iterations"] <= 15
    shaped_path = [p for p in rep.outputs if p.endswith("shaped.txt")]
    assert len(shaped_path) == 1
    shaped = cst.load_constellation(shaped_path[0])
    assert len(shaped.points) == 64
    assert abs(cst.gmi_estimate(shaped, 11.0) - row["gmi_shaped_2d"]) < 1e-12


def test_shape_mode_with_markers_keeps_marker_indices(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="shape",
        output_dir=str(tmp_path),
        source="square64",
        shape_iterations=5,
        add_markers=True,
    )
    rep = ex.run_experiment(cfg)
    shaped = cst.load_constellation([p for p in rep.outputs if p.endswith(".txt")][0])
    assert len(shaped.marker_indices) == 4


# ---------------------------------------------------------------------------
# awgn_e2e mode


def test_awgn_e2e_metrics_and_rate_selection(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="awgn_e2e",
        output_dir=str(tmp_path),
        source="square64",
        snr_start_db=11.0,
        snr_stop_db=11.0,
        symbols=20000,
        fec_rates=("1/2", "3/5", "2/3"),
    )
    rep = ex.run_experiment(cfg)
    assert rep.columns == (
        "snr_db",
        "gmi_2d",
        "gap_4d",
        "ber_pre_fec",
        "code_rate",
        "rate_feasible",
        "net_gbps",
        "gate_pass",
        "ber_post_fec",
    )
    row = dict(zip(rep.columns, rep.rows[0]))
    # Monte-Carlo GMI from the actual noisy run sits near the analytic value
    assert abs(row["gmi_2d"] - cst.gmi_estimate(cst.load_builtin("square64"), 11.0)) < 0.05
    assert 0.08 < row["ber_pre_fec"] < 0.2
    rate = Fraction(row["code_rate"])
    assert 2.0 * row["gmi_2d"] >= float(rate) * 12.0
    assert row["rate_feasible"]
    assert abs(row["net_gbps"] - float(rate) * 12.0 * 35e9 * 0.995 / 1e9) < 1e-9
    # no parity matrix configured: ideal inner code at a feasible rate
    assert row["ber_post_fec"] == 0.0
    assert row["gate_pass"]


def test_awgn_e2e_net_rate_deducts_the_configured_overhead(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="awgn_e2e",
        output_dir=str(tmp_path),
        source="square64",
        snr_start_db=9.0,
        snr_stop_db=13.0,
        symbols=4000,
        bch_overhead=0.07,
    )
    rep = ex.run_experiment(cfg)
    for values in rep.rows:
        row = dict(zip(rep.columns, values))
        want = float(Fraction(row["code_rate"])) * 2.0 * 6 * 35e9 * (1.0 - 0.07) / 1e9
        assert row["net_gbps"] == want


def test_awgn_e2e_from_a_sixteen_point_file_rates_against_its_own_bits(tmp_path):
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    path = tmp_path / "square16.txt"
    cst.save_constellation(natural_constellation((levels[:, None] + 1j * levels).ravel()), path)
    cfg = ex.ExperimentConfig(
        mode="awgn_e2e",
        output_dir=str(tmp_path / "out"),
        source=str(path),
        snr_start_db=6.0,
        snr_stop_db=18.0,
        snr_step_db=6.0,
        symbols=4000,
    )
    assert ex.validate_config(cfg) == []
    rep = ex.run_experiment(cfg)
    rates = [Fraction(r) for r in cfg.fec_rates]
    for values in rep.rows:
        row = dict(zip(rep.columns, values))
        # 16 points carry 2m = 8 bits per 4D symbol, not the 64-point 12
        assert row["gmi_2d"] <= 4.0
        rate = Fraction(row["code_rate"])
        assert rate == max(r for r in rates if float(r) * 8.0 <= 2.0 * row["gmi_2d"])
        assert row["net_gbps"] == float(rate) * 8.0 * 35e9 * (1.0 - cfg.bch_overhead) / 1e9
    # at 18 dB 16QAM is nearly error free, so the top rate fits 8 bits but not 12
    assert Fraction(rep.rows[-1][rep.columns.index("code_rate")]) == max(rates)


def test_awgn_e2e_with_parity_matrix_measures_post_decode_ber(tmp_path):
    h = fec.make_regular_ldpc(240, row_weight=6, col_weight=3, seed=1)
    alist = tmp_path / "r12.alist"
    fec.save_alist(h, str(alist))
    cfg = ex.ExperimentConfig(
        mode="awgn_e2e",
        output_dir=str(tmp_path),
        source="square64",
        snr_start_db=14.0,
        snr_stop_db=14.0,
        symbols=20000,
        fec_matrix=str(alist),
        fec_rates=("1/2",),
    )
    rep = ex.run_experiment(cfg)
    row = dict(zip(rep.columns, rep.rows[0]))
    assert row["ber_pre_fec"] > 0.05
    assert row["ber_post_fec"] == 0.0
    assert row["gate_pass"]


def test_awgn_e2e_builds_the_code_once_per_sweep(tmp_path, monkeypatch):
    h = fec.make_regular_ldpc(240, row_weight=6, col_weight=3, seed=1)
    alist = tmp_path / "r12.alist"
    fec.save_alist(h, str(alist))
    calls = {"load_alist": 0, "systematic_encoder": 0}
    for name in calls:
        real = getattr(fec, name)

        def counted(*args, _real=real, _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(fec, name, counted)
    cfg = ex.ExperimentConfig(
        mode="awgn_e2e",
        output_dir=str(tmp_path),
        source="square64",
        snr_start_db=12.0,
        snr_stop_db=14.0,
        symbols=2400,
        fec_matrix=str(alist),
        fec_rates=("1/2",),
    )
    rep = ex.run_experiment(cfg)
    assert len(rep.rows) == 3
    assert calls == {"load_alist": 1, "systematic_encoder": 1}


def test_awgn_e2e_infeasible_rate_fails_gate(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="awgn_e2e",
        output_dir=str(tmp_path),
        source="square64",
        snr_start_db=0.0,
        snr_stop_db=0.0,
        symbols=5000,
        fec_rates=("9/10",),
    )
    rep = ex.run_experiment(cfg)
    row = dict(zip(rep.columns, rep.rows[0]))
    assert not row["rate_feasible"]
    assert math.isnan(row["ber_post_fec"])
    assert not row["gate_pass"]


# ---------------------------------------------------------------------------
# fiber_e2e mode


def test_cdc_receiver_compensates_heterogeneous_spans():
    # lossless linear spans of different lengths and dispersions: CDC must
    # undo the summed dispersion of the span list it is handed, whatever
    # the configured span count
    c = cst.load_builtin("square64")
    frame, _ = dsp.random_symbols(c, 1024, seed=7)
    wave = dsp.rrc_shape(frame, 2, 0.01)
    spans = [
        ch.SpanSpec(segments=(ch.FiberSegment(km * 1e3, 0.0, d, 80.0, 0.0),))
        for km, d in ((80.0, 17.0), (40.0, 4.0), (100.0, 20.5))
    ]
    link = ch.propagate_link(wave, spans, seed=None, max_step_m=1e5)
    cfg = ex.ExperimentConfig(mode="fiber_e2e")
    got = ex._receiver_chain(dsp.cd_compensate(link, spans), c, cfg)
    want = dsp.decimate(dsp.matched_filter(wave, rolloff=cfg.rrc_rolloff))
    rel = np.max(np.abs(got.symbols - want.symbols)) / np.max(np.abs(want.symbols))
    assert rel < 1e-9


def test_default_fiber_e2e_holds_no_launch_field_or_large_llr_block(tmp_path):
    # traced peak 21.0 MB while DBP ran beside the launch waveform and
    # the demapper worked on 8 MB distance blocks; 15.5 MB without both
    tracemalloc.start()
    try:
        ex.run_experiment(ex.ExperimentConfig(mode="fiber_e2e", output_dir=str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17e6, peak


def test_fiber_e2e_transmits_at_the_configured_symbol_rate(tmp_path, monkeypatch):
    launched = []
    propagate = ch.propagate_link

    def spy(frame, *args, **kwargs):
        launched.append((frame.sample_rate, frame.symbol_rate))
        return propagate(frame, *args, **kwargs)

    monkeypatch.setattr(ch, "propagate_link", spy)
    cfg = ex.ExperimentConfig(
        mode="fiber_e2e",
        output_dir=str(tmp_path),
        span_count=1,
        symbols=1024,
        symbol_rate_hz=32e9,
    )
    ex.run_experiment(cfg)
    assert launched == [(cfg.oversampling * 32e9, 32e9)]


def test_fiber_e2e_aligns_each_received_frame_once(tmp_path, monkeypatch):
    # one alignment each for the CDC and the DBP receiver's frame
    calls = []
    align = dsp.align

    def counted(frame, reference):
        calls.append(frame)
        return align(frame, reference)

    monkeypatch.setattr(dsp, "align", counted)
    cfg = ex.ExperimentConfig(
        mode="fiber_e2e", output_dir=str(tmp_path), source="square64",
        span_count=1, symbols=256, oversampling=2,
    )
    ex.run_experiment(cfg)
    assert len(calls) == 2


def test_fiber_e2e_columns_and_linear_regime_sanity(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="fiber_e2e",
        output_dir=str(tmp_path),
        source="square64",
        span_count=2,
        symbols=2048,
        oversampling=2,
        launch_power_dbm=-10.0,
        transmitter_snr_db=float("inf"),
        max_step_m=5000.0,
        dbp_steps_per_span=2,
    )
    rep = ex.run_experiment(cfg)
    assert rep.columns == (
        "snr_pre_dbp",
        "snr_post_dbp",
        "gmi_pre",
        "gmi_post",
        "ber_pre_fec",
        "code_rate",
        "rate_feasible",
        "net_gbps",
        "gate_pass",
        "ber_post_fec",
    )
    row = dict(zip(rep.columns, rep.rows[0]))
    # -10 dBm over 2 hybrid spans is amplifier-noise limited and clean
    assert row["snr_pre_dbp"] > 20.0
    assert row["snr_post_dbp"] > row["snr_pre_dbp"] - 0.5
    assert row["gmi_pre"] > 5.5
    assert row["ber_pre_fec"] < 1e-3
    assert row["ber_post_fec"] == 0.0
    man = _manifest(rep.manifest_path)
    assert man["status"] == "ok"
    assert "fiber_e2e.csv" in man["outputs"]


@pytest.mark.parametrize("transmitter_snr_db, feasible", [(20.0, True), (0.0, False)])
def test_fiber_e2e_coded_tail_follows_the_post_dbp_gmi(tmp_path, transmitter_snr_db, feasible):
    # the code rate is the one the back-propagated GMI supports, and the
    # inner code is ideal: error free when feasible, whatever the pre-FEC BER
    cfg = ex.ExperimentConfig(
        mode="fiber_e2e",
        output_dir=str(tmp_path),
        transmitter_snr_db=transmitter_snr_db,
        **_SMALL_RUNS["fiber_e2e"],
    )
    rep = ex.run_experiment(cfg)
    row = dict(zip(rep.columns, rep.rows[0]))
    # square64 carries 2m = 12 bits per 4D symbol
    rate, ok = fec.select_rate(2.0 * row["gmi_post"], cfg.fec_rates, 12.0)
    net, _ = fec.net_throughput([float(rate) * 12.0], cfg.symbol_rate_hz, cfg.bch_overhead)
    assert (row["code_rate"], row["rate_feasible"], row["net_gbps"]) == (str(rate), ok, net[0])
    assert ok is feasible
    if feasible:
        assert row["ber_pre_fec"] > cfg.ber_threshold
        assert row["ber_post_fec"] == 0.0 and row["gate_pass"]
    else:
        assert math.isnan(row["ber_post_fec"]) and not row["gate_pass"]


def _small_link_cfg(out, **kw):
    return ex.ExperimentConfig(
        mode="fiber_e2e", output_dir=str(out), source="square64", span_count=2, **kw
    )


def test_explicit_max_step_reproduces_uniform_step_csv(tmp_path):
    # the five measured values were written by the uniform-step engine
    # with each step's Kerr phase over its lossy length, and the coded tail
    # follows from gmi_post; an explicit max_step_m must keep every byte
    pinned = (
        "snr_pre_dbp,snr_post_dbp,gmi_pre,gmi_post,ber_pre_fec,"
        "code_rate,rate_feasible,net_gbps,gate_pass,ber_post_fec\n"
        "19.8682163,19.9127847,5.75828556,5.76363234,0.00846354167,9/10,1,376.11,1,0\n"
    )
    cfg = _small_link_cfg(tmp_path, symbols=1024, oversampling=2, max_step_m=1000.0)
    ex.run_experiment(cfg)
    assert (tmp_path / "fiber_e2e.csv").read_bytes() == pinned.encode("utf-8")


@pytest.mark.parametrize("power", [-3.0, 0.0, 3.0])
def test_default_steps_match_fine_uniform_steps(tmp_path, power):
    rows = [
        ex.run_experiment(
            _small_link_cfg(tmp_path / str(h), symbols=2048, launch_power_dbm=power, max_step_m=h)
        ).rows[0]
        for h in (None, 100.0)
    ]
    # the step rule's budget: CDC and post-DBP SNR within 0.01 dB of 100 m steps
    assert abs(rows[0][0] - rows[1][0]) <= 0.01, f"CDC SNR {rows[0][0]} vs {rows[1][0]}"
    assert abs(rows[0][1] - rows[1][1]) <= 0.01, f"post-DBP SNR {rows[0][1]} vs {rows[1][1]}"


# ---------------------------------------------------------------------------
# linkbudget mode


def test_linkbudget_mode_profile(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="linkbudget",
        output_dir=str(tmp_path),
        band_channels=5,
        launch_power_dbm=-2.9,
    )
    rep = ex.run_experiment(cfg)
    assert rep.columns == ("wavelength", "ase_snr", "nli_snr", "total_snr")
    assert len(rep.rows) == 5
    wl = [r[0] for r in rep.rows]
    assert wl == sorted(wl)
    for _, ase, nli, total in rep.rows:
        assert total <= min(ase, nli, 20.0) + 1e-9


def test_linkbudget_infinite_transmitter_snr_drops_the_transceiver_term(tmp_path):
    cfg = ex.ExperimentConfig(
        mode="linkbudget",
        output_dir=str(tmp_path),
        band_channels=5,
        transmitter_snr_db=math.inf,
    )
    rows = ex.run_experiment(cfg).rows
    assert len(rows) == 5
    for _, ase, nli, total in rows:
        assert total == linkbudget.combine_snr([ase, nli])


# ---------------------------------------------------------------------------
# CLI


def _valid_ini(tmp_path, out=None, extra=""):
    out = str(out or tmp_path / "out")
    text = (
        "[experiment]\nmode = gap_sweep\nseed = 3\n"
        f"output = {out}\n\n"
        "[sweep]\nsnr_start_db = 10\nsnr_stop_db = 11\nsnr_step_db = 1\n"
        + extra
    )
    return _write(tmp_path, text), out


def test_cli_validate_ok_exits_zero(tmp_path, capsys):
    path, _ = _valid_ini(tmp_path)
    assert cli.main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out == ""


def test_cli_validate_prints_diagnostics_and_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "[constellation]\nsource = /nope/missing.txt\n")
    assert cli.main(["validate", "--config", path]) == 1
    assert "constellation.source" in capsys.readouterr().out


def test_cli_run_executes_and_prints_outputs(tmp_path, capsys):
    path, out = _valid_ini(tmp_path)
    assert cli.main(["run", "--config", path]) == 0
    printed = capsys.readouterr().out
    assert os.path.join(out, "gap_sweep.csv") in printed
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_cli_run_bad_config_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "[channel]\nspans = many\n")
    assert cli.main(["run", "--config", path]) == 1
    assert "channel.spans" in capsys.readouterr().err


# a fresh process, entered through a linkbudget run (argv[1] "runner", in
# the directory argv[2]) or through a bare import
_FRESH_PROCESS = """
import resource, sys
import numpy as np
if sys.argv[1] == "runner":
    from shapelink import experiments
    experiments.run_experiment(experiments.ExperimentConfig(mode="linkbudget"), sys.argv[2])
else:
    import shapelink
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
"""

_LINK_PASS_FAULTS = _FRESH_PROCESS + """
from shapelink import channel as ch, dsp
rng = np.random.default_rng(0)
x = rng.standard_normal((2, 65536)) + 1j * rng.standard_normal((2, 65536))
frame = ch.with_power(ch.WaveformFrame(x, 4 * 35e9), -0.5)
spans = [ch.hybrid_span()] * 2
for _ in range(2):
    before = faults()
    dsp.dbp(ch.propagate_link(frame, spans, seed=None), spans, 4)
print(faults() - before)
"""

_FFT_FAULTS = _FRESH_PROCESS + """
rng = np.random.default_rng(0)
x = rng.standard_normal((2, 65536)) + 1j * rng.standard_normal((2, 65536))
x = np.fft.ifft(np.fft.fft(x, axis=1), axis=1)  # first touch of the heap
before = faults()
for _ in range(10):
    x = np.fft.ifft(np.fft.fft(x, axis=1), axis=1)
print(faults() - before)
"""


def _fresh_process_output(script, entry, out_dir):
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"
    }
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(shapelink.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script, entry, str(out_dir)],
        capture_output=True, text=True, check=True, env=env,
    )
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_runner_settles_glibc_thresholds_and_import_does_not(tmp_path):
    # a fresh process page-faults on every split-step FFT buffer until
    # glibc's thresholds rise; run_experiment fixes them on entry, so a
    # second link pass after it takes almost no faults.  A bare import
    # leaves the allocator alone, so that pass still faults afresh
    settled = _fresh_process_output(_LINK_PASS_FAULTS, "runner", tmp_path)
    bare = _fresh_process_output(_LINK_PASS_FAULTS, "import", tmp_path)
    assert settled < 10_000, settled
    assert bare >= 10 * max(settled, 1_000), (settled, bare)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_runner_settles_glibc_thresholds_above_a_link_fft(tmp_path):
    # after a run that frees no large block, the 2 MB arrays of a
    # (2, 65536) complex FFT still come from the heap and stop
    # page-faulting; unsettled, each round trip takes ~2,000 minor faults
    assert _fresh_process_output(_FFT_FAULTS, "runner", tmp_path) < 2000


@pytest.mark.parametrize("libc", [None, ValueError("unrecognized configuration name")])
def test_allocator_settle_is_a_no_op_off_glibc(monkeypatch, libc):
    # musl and macOS have no glibc version string; mallopt is not looked up
    def confstr(name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    def no_libc(*args):
        raise AssertionError("libc was loaded off glibc")

    monkeypatch.setattr(ex.os, "confstr", confstr)
    monkeypatch.setattr(ex.ctypes, "CDLL", no_libc)
    assert ex._settle_allocator.__wrapped__() is None


def _unreadable_source_ini(tmp_path):
    # a shape run that validates but cannot parse its constellation file
    bad = tmp_path / "broken.txt"
    bad.write_text("not numbers\n", encoding="utf-8")
    out = tmp_path / "out"
    text = (
        "[experiment]\nmode = shape\n"
        f"output = {out}\n\n"
        f"[constellation]\nsource = {bad}\n"
    )
    return _write(tmp_path, text), out


def test_cli_run_runtime_failure_exits_two(tmp_path, capsys):
    path, out = _unreadable_source_ini(tmp_path)
    assert cli.main(["run", "--config", path]) == 2
    assert capsys.readouterr().err
    assert _manifest(out / "manifest.json")["status"] == "failed"


def test_cli_run_signal_free_fiber_link_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    # a received field with no signal cannot be aligned to the transmitted
    # symbols: that is a runtime failure (exit 2), not a config problem
    monkeypatch.setattr(
        ch, "propagate_link", lambda wave, *a, **kw: wave.with_samples(np.zeros_like(wave.samples))
    )
    out = tmp_path / "out"
    text = (
        "[experiment]\nmode = fiber_e2e\n"
        f"output = {out}\n\n"
        "[constellation]\nsource = square64\n\n"
        "[channel]\nspans = 1\nsymbols = 256\noversampling = 2\n"
    )
    assert cli.main(["run", "--config", _write(tmp_path, text)]) == 2
    assert "AlignmentError" in capsys.readouterr().err
    man = _manifest(out / "manifest.json")
    assert man["status"] == "failed"
    assert man["error"].startswith("AlignmentError: ")
    assert not (out / "fiber_e2e.csv").exists()


def test_readme_cli_synopsis_lists_exactly_the_parser_verbs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"## CLI\n\n```\n(.*?)```", fh.read(), re.S).group(1)
    listed = [line.split()[1] for line in block.splitlines()]
    (verbs,) = (a.choices for a in cli._build_parser()._actions if a.dest == "verb")
    assert listed == list(verbs)


def test_cli_shape_verb_forces_shape_mode(tmp_path):
    out = tmp_path / "shaped"
    text = (
        "[experiment]\nmode = gap_sweep\n"
        f"output = {out}\n\n"
        "[constellation]\nsource = square64\n\n"
        "[shape]\niterations = 5\n"
    )
    path = _write(tmp_path, text)
    assert cli.main(["shape", "--config", path]) == 0
    assert os.path.exists(out / "shape.csv")
    assert os.path.exists(out / "shaped.txt")


def test_cli_seed_and_out_flags(tmp_path):
    path, _ = _valid_ini(tmp_path)
    out2 = str(tmp_path / "elsewhere")
    assert cli.main(["run", "--config", path, "--seed", "42", "--out", out2]) == 0
    man = _manifest(os.path.join(out2, "manifest.json"))
    assert man["seed"] == 42


def test_cli_rejects_negative_seed(tmp_path, capsys):
    path, _ = _valid_ini(tmp_path)
    assert cli.main(["run", "--config", path, "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("flags, key", [(["--seed", "-1"], "seed")])
@pytest.mark.parametrize("verb, stream", [("validate", "out"), ("run", "err")])
def test_cli_validate_rejects_what_run_rejects(tmp_path, capsys, flags, key, verb, stream):
    path, out = _valid_ini(tmp_path)
    assert cli.main([verb, "--config", path, *flags]) == 1
    assert key in getattr(capsys.readouterr(), stream)
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "ini, argv, status, holds",
    [
        (_valid_ini, ["validate"], 0, lambda proc, out: proc.stdout == ""),
        (_valid_ini, ["validate", "--seed", "-1"], 1, lambda proc, out: "seed" in proc.stdout),
        (
            _unreadable_source_ini,
            ["run"],
            2,
            lambda proc, out: _manifest(os.path.join(out, "manifest.json"))["status"] == "failed",
        ),
    ],
    ids=["validate_ok", "bad_seed", "runtime_failure"],
)
def test_module_entry_point_runs(tmp_path, ini, argv, status, holds):
    # each exit status of the CLI, across a process boundary
    path, out = ini(tmp_path)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shapelink.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "shapelink", *argv, "--config", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == status, proc.stderr
    assert holds(proc, out), (proc.stdout, proc.stderr)


_NUMPY_ONLY_RUN = """
import os, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import shapelink
from shapelink import experiments as ex, fec

loaded = [m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy"]
assert not loaded, loaded
out = sys.argv[1]
alist = os.path.join(out, "r12.alist")
fec.save_alist(fec.make_regular_ldpc(240, row_weight=6, col_weight=3, seed=1), alist)
runs = [
    dict(mode="shape", source="square64", shape_iterations=2),
    dict(mode="gap_sweep", snr_start_db=10.0, snr_stop_db=11.0),
    dict(mode="awgn_e2e", source="square64", snr_start_db=12.0, snr_stop_db=12.0,
         symbols=2048, fec_matrix=alist, fec_rates=("1/2",)),
    dict(mode="fiber_e2e", span_count=1, symbols=256),
    dict(mode="fiber_e2e", span_count=1, symbols=256, linewidth_hz=100e3),
    dict(mode="linkbudget"),
]
for i, kw in enumerate(runs):
    rep = ex.run_experiment(ex.ExperimentConfig(output_dir=os.path.join(out, str(i)), **kw))
    assert rep.rows, kw["mode"]
print("ok")
"""


def test_every_mode_runs_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shapelink.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_RUN, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
