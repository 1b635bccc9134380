"""Traced stand-in for ``python -m repro``: the ``lenet5_cli_cold`` traced op.

``python cli_driver.py TRACE_FILE <repro argv...>`` imports ``repro.cli``
under a span, installs the harness's wrappers, calls
``repro.cli.main(argv)`` and writes the recorded spans and counts to
TRACE_FILE.  The parent splices them under its own root span, so the
part of the process this file cannot see (interpreter start and exit)
is that root's self time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer, install  # a sibling: the script's directory is on sys.path


def main(argv: list[str]) -> int:
    trace_file, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.begin_op(0, root="cli.process")
    tracer.enter("cli.import")
    import repro.cli

    tracer.exit()
    install(tracer)
    # Resolved after install(): the wrapper, as __main__.py would find it.
    rc = repro.cli.main(cli_argv)
    tracer.end_op()
    Path(trace_file).write_text(json.dumps(tracer.to_json()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
