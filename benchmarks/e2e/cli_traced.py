"""Run one ``repro`` command with the layer wrappers installed.

Times ``import repro.cli``, installs the wrappers, calls
``repro.cli.main(argv)``, writes the spans and exits with the command's
exit code::

    python benchmarks/e2e/cli_traced.py --spans s.jsonl -- verify a.spec
"""

import sys

from layers import run_cli_traced

if __name__ == "__main__":
    sys.exit(run_cli_traced())
