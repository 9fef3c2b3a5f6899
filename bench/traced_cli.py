"""Run one nahn command with per-layer tracing.

``python3 bench/traced_cli.py SPANS.jsonl <nahn arguments>`` installs the
tracer, runs ``nahn.cli.main`` on the arguments, appends this process's
spans to SPANS.jsonl and exits with the command's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    import nahn.cli

    code = nahn.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
