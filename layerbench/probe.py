"""Child-process probes of the layered benchmark; each prints one JSON line.

    python3 probe.py setup <src dir> <scenario.ini>
        seconds for ``import phevopt`` and for the first ``load_scenario``
    python3 probe.py rss <src dir> <CLI argument>...
        exit code and peak resident set size of one CLI command
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    mode, src, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    if mode == "setup":
        t0 = time.perf_counter()
        import phevopt
        t1 = time.perf_counter()
        phevopt.load_scenario(rest[0])
        t2 = time.perf_counter()
        result = {"import_s": t1 - t0, "load_scenario_s": t2 - t1}
    elif mode == "rss":
        from phevopt.cli import main as cli_main
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(rest)
        # ru_maxrss is in KiB on Linux
        result = {"code": code,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    else:
        raise SystemExit(f"unknown probe {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
