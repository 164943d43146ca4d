"""Run one `muntz` command with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 perfbench/cli_child.py SPANS_OUT ARGV...

Used by the traced run of the ``cli`` workload in place of
``python -m muntzlab.cli``; the spans go to SPANS_OUT as JSON lines and
the exit code is the CLI's own.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import muntzlab.cli  # noqa: E402

from perfbench.trace import Tracer, dump  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    try:
        return muntzlab.cli.main(sys.argv[2:])
    finally:
        dump(tracer.rows(), sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
