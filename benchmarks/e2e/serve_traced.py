"""Run ``repro serve`` with the layer wrappers installed.

Like ``cli_traced.py``, but without the wrapper on ``repro.cli.main``:
it blocks for the server's lifetime, so its span would cover
everything.  The spans are written once SIGTERM has drained the
server::

    python benchmarks/e2e/serve_traced.py --spans s.jsonl -- serve --port 8321
"""

import sys

from layers import run_cli_traced

if __name__ == "__main__":
    sys.exit(run_cli_traced(skip={"cli.command"}))
