"""Run ``repro`` with layer spans installed; write the spans on exit.

Usage: ``python -m perfbench.serve_traced SPANS_OUT serve --http ...``
(with ``src`` and the repository root on ``PYTHONPATH``).  The spans
and the measured per-span cost are written to ``SPANS_OUT`` as JSON
after the CLI returns, i.e. after the server has drained on SIGTERM.
"""

from __future__ import annotations

import json
import sys

from perfbench import spans


def main(argv: list[str]) -> int:
    out, cli_argv = argv[0], argv[1:]
    span_cost = spans.span_cost_seconds()
    recorder = spans.SpanRecorder()
    spans.install(recorder)

    from repro.cli import main as cli_main

    code = cli_main(cli_argv)
    with open(out, "w") as handle:
        json.dump({"span_cost_s": span_cost, "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
