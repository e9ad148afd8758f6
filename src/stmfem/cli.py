"""Command line front end for the convergence experiments.

Flags override values loaded from an optional key=value config file.  A run
writes CSV, markdown, and plot-data tables into the output directory and
prints the markdown table.  On failure it prints a diagnostic naming the
stage and exits nonzero: 2 for a configuration error, 1 for a failed run, 3
for an output directory or table that cannot be written.  The output
directory is created before the sweep runs.
"""

import argparse
import os
import sys
from dataclasses import fields

from . import harness
from .mesh import write_text
from .timeloop import SOLVERS


def _parse_levels(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    lvl = int(text)
    return lvl, lvl


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stmfem",
        description="Space-time mixed FEM convergence experiments "
                    "on the unit square.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--r", type=int, help="temporal degree (default 2)")
    parser.add_argument("--p", type=int, help="spatial degree (default 2)")
    parser.add_argument("--levels", help="level range A..B (default 0..4)")
    parser.add_argument("--distortion", type=float,
                        help="interior-vertex distortion factor (default 0)")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--solver", choices=SOLVERS)
    parser.add_argument("--omega", type=float,
                        help="angular frequency of the manufactured solution")
    parser.add_argument("--final-time", type=float, dest="final_time")
    parser.add_argument("--n-steps-base", type=int, dest="n_steps_base",
                        help="time intervals on level 0 (default 10)")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--dump-meshes", action="store_true",
                        help="write plain-text mesh listings per level")
    parser.add_argument("--quiet", action="store_true")
    return parser


# config-file values are cast to the type of the field they set
_CONFIG_CASTS = {f.name: f.type for f in fields(harness.ExperimentConfig)}


def build_config(args):
    values = {}
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            if key == "levels":
                values["level_min"], values["level_max"] = _parse_levels(raw)
            elif key in _CONFIG_CASTS:
                values[key] = _CONFIG_CASTS[key](raw)
            else:
                raise ValueError(f"unknown config key {key!r}")
    if args.levels:
        values["level_min"], values["level_max"] = _parse_levels(args.levels)
    if args.out is not None:
        values["out_dir"] = args.out
    # every other flag is spelled as the field it sets
    for name in _CONFIG_CASTS:
        val = getattr(args, name, None)
        if val is not None:
            values[name] = val
    return harness.ExperimentConfig(**values)


def _output_error(exc):
    print(f"stmfem: output error: {exc}", file=sys.stderr)
    return 3


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"stmfem: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        return _output_error(exc)

    def progress(level, eu, eq, wall):
        if not args.quiet:
            print(f"level {level}: err_u {eu:.4e}  err_q_V {eq:.4e}  "
                  f"({wall:.1f}s)", flush=True)

    try:
        record = harness.run_convergence(config, progress=progress)
    except Exception as exc:
        print(f"stmfem: run failed: {exc}", file=sys.stderr)
        return 1
    tag = f"r{config.r}_p{config.p}_d{int(round(100 * config.distortion))}"
    try:
        for fmt, name in (("csv", f"convergence_{tag}.csv"),
                          ("markdown", f"convergence_{tag}.md"),
                          ("plot-data", f"convergence_{tag}.dat")):
            harness.emit_tables(record, fmt, os.path.join(config.out_dir, name))
        if args.dump_meshes:
            for level in config.levels():
                m = harness.build_level_mesh(config, level)
                write_text(m, os.path.join(config.out_dir,
                                           f"mesh_level{level}_{tag}.txt"))
    except OSError as exc:
        return _output_error(exc)
    if not args.quiet:
        print(f"config hash: {record.config_hash}")
        print(harness.to_markdown(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
