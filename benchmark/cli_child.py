"""Traced entry point for one CLI command.

    python benchmark/cli_child.py SPANS_FILE COMMAND [CLI ARGS...]

Imports ``elastocloak.cli`` (timed as ``cli.import_s``), installs the span
wrappers, runs ``elastocloak.cli.main`` on the remaining arguments, writes
the spans to SPANS_FILE and exits with the command's exit code.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import elastocloak.cli

    import_s = time.perf_counter() - t0
    import spans

    rec = spans.Recorder()
    rec.install()
    rec.count("cli.import_s", import_s)
    rec.begin_op(sys.argv[2])
    rec.active = True
    try:
        code = elastocloak.cli.main(sys.argv[2:])
    finally:
        rec.active = False
        rec.save(sys.argv[1])
    sys.exit(code)
