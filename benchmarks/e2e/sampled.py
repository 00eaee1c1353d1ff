"""Run one ``repro`` command under the host-speed sampler.

The untraced CLI calls and the untraced server run through this
launcher: it starts ``hostspeed.Sampler``, calls
``repro.cli.main(argv)``, writes the samples and exits with the
command's exit code::

    python benchmarks/e2e/sampled.py --samples s.json -- verify a.spec
"""

import sys

from hostspeed import run_cli_sampled

if __name__ == "__main__":
    sys.exit(run_cli_sampled())
