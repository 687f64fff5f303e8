"""Command-line experiment runner.

Three verbs share the flags ``--config``, ``--seed`` and ``--out``:

``run``
    Execute the mode named in the config.
``validate``
    Report config diagnostics without running anything.
``shape``
    Run with the mode forced to ``shape``.

Exit status: 0 success, 1 config or diagnostic problem, 2 runtime
failure (a manifest describing the failure is still written).

``run`` and ``shape`` go through :func:`shapelink.experiments.run_experiment`,
which also settles glibc's allocator thresholds; ``validate`` runs nothing
and leaves the allocator alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigurationError
from .experiments import parse_config, run_experiment, validate_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapelink",
        description="Constellation shaping and fiber link experiment runner.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("run", "run the experiment mode named in the config"),
        ("validate", "report config diagnostics without running"),
        ("shape", "run constellation shaping (mode forced to shape)"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--config", required=True, help="experiment config file (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg, diags = parse_config(args.config)
    if cfg is not None:
        # every verb validates the config that run would execute
        seed = cfg.seed if args.seed is None else args.seed
        out = cfg.output_dir if args.out is None else args.out
        mode = "shape" if args.verb == "shape" else cfg.mode
        cfg = dataclasses.replace(cfg, mode=mode, seed=seed, output_dir=out)
        diags = diags + validate_config(cfg)
    for d in diags:
        print(d, file=sys.stdout if args.verb == "validate" else sys.stderr)
    if args.verb == "validate" or diags:
        return 1 if diags else 0

    try:
        report = run_experiment(cfg)
    except ConfigurationError as exc:
        for line in str(exc).splitlines():
            print(line, file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: manifest already records it
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    for path in report.outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
