"""Which private names one `shapelink` module takes from another."""

import ast
from pathlib import Path

import shapelink

SRC = Path(shapelink.__file__).parent

#: every (importer, owner, name) of an underscore name that crosses a
#: module boundary.  A name added here should be an interface its owner
#: declares, such as the split-step plan of `channel`; a kernel read from
#: outside its module belongs beside the blocks it iterates instead.
ALLOWED = {
    ("channel", "constellation", "_from_db"),
    ("dsp", "channel", "_frame_field"),
    ("dsp", "channel", "_split_step"),
    ("dsp", "channel", "_step_count"),
    ("dsp", "constellation", "_auto_noise_variance"),
    ("dsp", "constellation", "_from_db"),
    ("experiments", "constellation", "_from_db"),
    ("experiments", "constellation", "_noise_variance"),
    ("experiments", "constellation", "_SNR_LIMIT_DB"),
    ("linkbudget", "channel", "_C0"),
    ("linkbudget", "channel", "_PLANCK"),
    ("linkbudget", "constellation", "_from_db"),
    ("shaping", "constellation", "_gh_gmi"),
    ("shaping", "constellation", "_gh_gmi_and_gradient"),
    ("shaping", "constellation", "_noise_variance"),
}


def _private_uses(path):
    # underscore names taken from sibling modules, by `from .x import _n`
    # or as `x._n` after `from . import x`
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        owner = node.module or ""
        if node.level == 0:
            if owner != "shapelink" and not owner.startswith("shapelink."):
                continue
            owner = owner[len("shapelink.") :] if "." in owner else ""
        for alias in node.names:
            if not owner:
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_"):
                yield owner, alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            yield modules[node.value.id], node.attr


def test_cross_module_private_names_are_the_listed_ones():
    found = {
        (path.stem, owner, name)
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _private_uses(path)
        if owner != path.stem
    }
    assert found == ALLOWED
