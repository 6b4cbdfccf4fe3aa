"""Entry of the ``edge_poll`` server process.

Runs the program's own ``repro serve`` command.  With ``--trace-out PATH``
first, it installs the tracing wrappers before the command builds the
service, and writes the recorded spans to PATH once the server has
drained and returned.

Usage: python3 fleetbench/serve_entry.py [--trace-out PATH] serve --listen ...
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_program, write_json  # noqa: E402


def main(argv) -> int:
    use_program()
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
        import tracing

        tracing.install(edge=True)
    from repro.cli import main as repro_main

    code = repro_main(argv)
    if trace_out is not None:
        write_json(trace_out, tracing.dump())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
