"""Run one panomerge CLI command with a span around every layer call.

Usage: python3 perfbench/traced_cli.py SPANS.json <panomerge arguments...>

The spans are written to SPANS.json when the command returns; the exit code
is the command's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import panomerge.cli  # noqa: E402

from tracer import Tracer, instrument  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        with tracer.span("cli.main"):
            code = panomerge.cli.main(argv)
    finally:
        restore()
        with open(out, "w") as f:
            json.dump([s.to_json() for s in tracer.spans], f)
    return code


if __name__ == "__main__":
    sys.exit(main())
