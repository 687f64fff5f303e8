"""Geometric constellation shaping and coherent single-channel link simulation.

Subsystems
----------
constellation
    Labeled 2^m-point constellations, GMI/PAPR metrics, ring markers,
    file format.
shaping
    Gradient-ascent GMI shaping with optional PAPR penalty.
channel
    Waveform frames, split-step fiber propagation, amplifier/ASE model,
    hybrid spans, transmitter impairments.
dsp
    RRC shaping/matched filtering, CD compensation, radius-directed
    equalization, frequency offset and carrier phase recovery, digital
    back-propagation, LLR demapping.
fec
    Normalized min-sum LDPC decoding, alist matrix I/O, rate selection and
    net-throughput accounting.
linkbudget
    Analytical ASE/NLI/transceiver SNR budget across the band.
cli / experiments
    Config-driven experiment runner (`python -m shapelink`).
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    channel,
    cli,
    constellation,
    dsp,
    errors,
    experiments,
    fec,
    linkbudget,
    shaping,
)
