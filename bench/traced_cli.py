"""Run the brinkman2d CLI in-process under a :class:`spans.Tracer`.

Usage: ``python3 bench/traced_cli.py SPANS_JSON TRACE_ID CLI_ARG...``

Imports ``brinkman2d.cli``, wraps the public functions of its layers,
calls ``brinkman2d.cli.main(CLI_ARG...)``, measures the GMRES solves it
saw, writes the spans to SPANS_JSON and exits with the CLI's exit code.
"""

from __future__ import annotations

import contextlib
import json
import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, trace_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(trace_id)
    with tracer.span("cli.import"):
        import brinkman2d.cli
    with contextlib.ExitStack() as stack:
        with tracer.span("bench.install"):
            stack.enter_context(tracer.installed())
        code = brinkman2d.cli.main(cli_argv)
    with tracer.span("bench.measure"):
        tracer.measure_solves()
    record = tracer.to_json()
    record["exit_code"] = code
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
