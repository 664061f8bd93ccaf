"""Traced stand-in for ``python -m moe_prune.cli``.

Usage: cli_launcher.py <spans.json> <cli arguments...>

Imports the package (timed as the process's import cost), installs the
boundary wrappers from tracing.py, runs ``moe_prune.cli.main`` and writes
the import time and spans to <spans.json> when the command ends. The
thread cap comes from the environment the benchmark sets.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import moe_prune.cli
    import moe_prune.evaluation  # noqa: F401  (every wrapped module is imported up front)
    import moe_prune.prune  # noqa: F401

    import_s = time.perf_counter() - start

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return moe_prune.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
