"""Labeled point sets for tests that start from bare coordinates."""

from shapelink.constellation import Constellation, normalized


def natural_constellation(points) -> Constellation:
    """``points`` scaled to unit power, point i labeled with i in natural
    binary, most significant bit first."""
    pts = normalized(points)
    m = pts.size.bit_length() - 1
    return Constellation(points=pts, labels=tuple(format(i, f"0{m}b") for i in range(pts.size)))
