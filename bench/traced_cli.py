"""Run one hilbcone CLI call with layer spans recorded.

Usage: ``python -m traced_cli <hilbcone argv...>`` with ``src`` and
``bench`` on PYTHONPATH.  Behaves like ``python -m hilbcone.cli``; after the call it
writes one line to stderr, a marker followed by the span totals as JSON.
"""

from __future__ import annotations

import json
import sys

from spans import TRACE_MARK, Tracer


def main() -> int:
    import hilbcone.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = hilbcone.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse errors exit through here
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.totals()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
