"""`unlbench <subcommand>` with the layer wrappers installed.

    python3 perfbench/cli_traced.py SPANS.json <subcommand> [args...]

Runs the same cli.main the installed `unlbench` script runs and writes the
recorded spans and counts to SPANS.json when the subcommand ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from unlbench import cli
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.to_dict()))


if __name__ == "__main__":
    sys.exit(main())
