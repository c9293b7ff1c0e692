"""Run one peakonlab CLI scenario in this fresh process and report its cost.

    python3 bench/scenario.py --src SRC --out DIR --spawned T0
                              [--trace SPANS.npz] [--setup-only] -- <cli args>

``T0`` is CLOCK_MONOTONIC, read by the parent just before it started this
process, so ``setup_s`` spans interpreter start, the import of
``peakonlab.cli`` and config validation.  The scenario then runs through
``cli.run_scenario``, the public entry point, and the last stdout line is a
JSON object with setup_s, run_s, peak_rss_mb and the scenario's exit code,
which is also this process's exit code.  With ``--trace`` the layer
boundaries are wrapped (see tracer.py) and the spans are written to SPANS.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    src = Path(opts.src).resolve()
    sys.path.insert(0, str(src))
    from peakonlab import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: peakonlab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    config = cli.config_from_args(cli.build_parser().parse_args(cli_args + ["--out", opts.out]))
    config.validate()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - opts.spawned
    if opts.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if opts.trace:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.run_scenario(config)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(opts.trace)
    print(json.dumps({"exit": code, "setup_s": setup_s, "run_s": run_s,
                      "peak_rss_mb": peak_rss_mb}))
    return code


if __name__ == "__main__":
    sys.exit(main())
