"""Start ``repro serve`` in this process, with or without tracing.

    python3 perfbench/launcher.py [--trace SPANS_FILE] serve [SERVE ARGS...]

The benchmark starts every server through this launcher so the process
topology is the same with tracing on and off.  With ``--trace`` the
layer wrappers of :mod:`spans` go in before the serve entry point runs;
each ``mark`` line on standard input is answered with one
``perfbench-mark <json>`` line on standard output carrying the
cumulative span totals, and the kept raw spans are written to
SPANS_FILE when the server exits.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from measure import DEFAULT_RECURSION_LIMIT  # noqa: E402


def _answer_marks(tracer) -> None:
    from spans import take_snapshot

    for line in sys.stdin:
        if line.strip() == "mark":
            snap = take_snapshot(tracer)
            print("perfbench-mark " + json.dumps(snap), flush=True)


def main(argv: list[str]) -> int:
    if sys.getrecursionlimit() != DEFAULT_RECURSION_LIMIT:
        print("error: the recursion limit is not the default", file=sys.stderr)
        return 2
    spans_file = None
    if argv[:1] == ["--trace"]:
        spans_file, argv = Path(argv[1]), argv[2:]
    if argv[:1] != ["serve"]:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = None
    if spans_file is not None:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        threading.Thread(target=_answer_marks, args=(tracer,), daemon=True).start()

    from repro.cli import run_serve

    code = run_serve(argv[1:])
    if tracer is not None:
        tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
