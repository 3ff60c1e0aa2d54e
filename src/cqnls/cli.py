"""Command line entry point: cqnls <experiment> --config <path> [--out DIR] [--workers K].

Exit codes: 0 success, 1 config error, 2 numerical failure,
3 invariant-suite (selftest) failure.  CQNLS_OUT_ROOT sets the default
output root.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENTS, load_config
from .errors import ConfigError
from .experiments import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cqnls")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="INI or JSON config file")
    parser.add_argument("--out", help="output directory (default: config / env)")
    parser.add_argument("--workers", type=int, help="sweep worker count")
    args = parser.parse_args(argv)

    # the command line's [run] keys replace the file's before the run is built and checked
    out_dir = args.out or (None if args.config else os.environ.get("CQNLS_OUT_ROOT"))
    run_keys = {"experiment": args.experiment, "out_dir": out_dir, "workers": args.workers}
    try:
        cfg = load_config(args.config, **{k: v for k, v in run_keys.items() if v is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
