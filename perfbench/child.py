"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/child.py SPEC.json

The spec names the package source directory, the requests, the field
orders to build during set-up, whether to trace, and where to write the
result.  Expected answers come from expected.json.  The working directory is the pass's own
directory, and GRAPHMOTIVE_CACHE points at an empty directory inside it.

Set-up ends once numpy and graphmotive are imported and every field the
requests use has its numpy tables built; the pass then sends every request
in-process through graphmotive.cli.main, the `gm` entry point, and checks
each answer before the next request starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import spans
import workloads


def _run_request(gm_main, req: dict, expected: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gm_main(list(req["argv"]))
        answer = workloads.parse_answer(req["argv"], code, out.getvalue())
    except SystemExit as exc:  # argparse rejects arguments by exiting
        answer = {"code": exc.code, "error": "SystemExit"}
    except Exception as exc:  # a crash is a failed request, not a failed run
        answer = {"code": None, "error": f"{type(exc).__name__}: {exc}"}
    ok = workloads.check(expected, req["id"], answer)
    tail = err.getvalue().rsplit("evaluations=", 1)
    evals = int(tail[1]) if len(tail) == 2 and tail[1].strip().isdigit() else 0
    return {"id": req["id"], "ok": ok, "answer": answer, "evals": evals}


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (graphmotive imports it lazily; set-up pays for it here)

    import graphmotive

    if not os.path.abspath(graphmotive.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"graphmotive imported from {graphmotive.__file__}, not {src}", file=sys.stderr)
        return 2
    import graphmotive.cli
    import graphmotive.ffield

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    # looked up after install(), so that traced passes call the wrappers
    gm_main = graphmotive.cli.main
    for q in spec["fields"]:
        graphmotive.ffield.make_field(q).np_tables
    ready = time.monotonic()

    expected = workloads.load_expected()
    start = time.perf_counter()
    outcomes = [_run_request(gm_main, req, expected) for req in spec["requests"]]
    wall = time.perf_counter() - start

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
    }
    if tracer is not None:
        tracer.write(spec["spans_out"])
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
