"""Command line entry point: cqnls <experiment> --config <path> [--out DIR] [--workers K].

Exit codes: 0 success, 1 config error, 2 numerical failure,
3 invariant-suite (selftest) failure.  CQNLS_OUT_ROOT sets the default
output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import EXPERIMENTS, ExperimentConfig, load_config
from .errors import ConfigError
from .experiments import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cqnls")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="INI or JSON config file")
    parser.add_argument("--out", help="output directory (default: config / env)")
    parser.add_argument("--workers", type=int, help="sweep worker count")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        replacements = {"experiment": args.experiment}
        if args.out:
            replacements["out_dir"] = args.out
        elif not args.config and "CQNLS_OUT_ROOT" in os.environ:
            replacements["out_dir"] = os.environ["CQNLS_OUT_ROOT"]
        if args.workers is not None:
            replacements["workers"] = args.workers
        cfg = dataclasses.replace(cfg, **replacements)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
