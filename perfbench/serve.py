"""Start ``repro-ssta serve`` with default settings on a free port.

    python3 perfbench/serve.py [--trace-out PATH]

With ``--trace-out`` every layer boundary is wrapped with spans before
the server starts (each /analyze or /optimize request is one
operation), and the per-layer summary is written to PATH as JSON once
the server has drained.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    from repro.cli import main as cli_main

    argv = ["serve", "--host", "127.0.0.1", "--port", "0"]
    if args.trace_out is None:
        return cli_main(argv)
    from spans import SERVICE_ROOTS, Tracer

    tracer = Tracer()
    tracer.install(roots=SERVICE_ROOTS)
    try:
        code = cli_main(argv)
    finally:
        tracer.restore()
    roots = tracer.summary().get("service.request", {"calls": 0})
    Path(args.trace_out).write_text(json.dumps({
        "summary": tracer.summary(),
        "counts": tracer.counts,
        "ops": roots["calls"],
        "wall_s": tracer.root_wall(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
