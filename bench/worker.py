"""Op runner: imports gaussbath from a checkout's src/ and runs ops.

An op is one ``gaussbath.cli.main(argv)`` call with its stdout captured.
``run.py`` uses this module in its own process for traced runs, and as a
child process for timed runs:

    python3 bench/worker.py SRC

The child reads one JSON argv per line on stdin and answers each with one
JSON line on stdout: the op's latency, exit code, captured stdout and, if it
raised, the traceback.  The line ``"rss"`` asks for the child's peak resident
set in MiB.  The child runs nothing but ops, so that figure is the program's
own and not the output checker's.  It exits when stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def import_package(src: Path):
    """Import gaussbath.cli from src/, never from elsewhere."""
    sys.path.insert(0, str(src))
    try:
        import gaussbath.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gaussbath from {src}: {exc}") from exc
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: gaussbath was imported from {cli.__file__}, not from {src}")
    return cli


def run_op(cli, argv: list[str]) -> dict:
    """Time one cli.main call; an exception is reported, not raised."""
    out = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            error = traceback.format_exc()
        latency = time.perf_counter() - start
    return {"latency": latency, "code": code, "stdout": out.getvalue(), "error": error}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(src: Path) -> None:
    cli = import_package(src)
    reply = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        answer = peak_rss_mib() if request == "rss" else run_op(cli, request)
        reply.write(json.dumps(answer) + "\n")
        reply.flush()


if __name__ == "__main__":
    serve(Path(sys.argv[1]))
