"""Command line entry point: cqnls <experiment> --config <path> [--out DIR] [--workers K].

The parser only splits the command line; the config reader checks every value,
the experiment and ``--workers`` included, as it checks a file's.  Exit codes:
0 success, 1 config error (a command line that does not parse included),
2 numerical failure, 3 invariant-suite (selftest) failure.  Errors go to
stderr.  CQNLS_OUT_ROOT sets the default output root.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENTS, load_config
from .errors import ConfigError
from .experiments import run


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a config error, not argparse's exit 2
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="cqnls")
    parser.add_argument("experiment", metavar="{" + ",".join(EXPERIMENTS) + "}")
    parser.add_argument("--config", help="INI or JSON config file")
    parser.add_argument("--out", help="output directory (default: config / env)")
    parser.add_argument("--workers", help="sweep worker count")
    try:
        args = parser.parse_args(argv)
        # the command line's [run] keys replace the file's before the run is built and checked
        out_dir = args.out or (None if args.config else os.environ.get("CQNLS_OUT_ROOT"))
        run_keys = {"experiment": args.experiment, "out_dir": out_dir, "workers": args.workers}
        cfg = load_config(args.config, **{k: v for k, v in run_keys.items() if v is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
