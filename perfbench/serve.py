"""Run the COMA match service (thread backend) for the benchmark's HTTP workload.

Started by the benchmark as its own process, so the load generator never
shares the server's interpreter lock::

    python3 perfbench/serve.py --port-file PATH [--spans PATH]

The server binds an ephemeral localhost port and writes it to ``--port-file``
once it accepts connections; ``POST /shutdown`` stops it.  With ``--spans``
the outside-in recorder of :mod:`perfbench.tracing` is installed before the
server starts, each request becomes a ``service.http`` root span carrying the
``op`` query parameter as its op id, and every span is written to the given
file when the server exits.
"""

from __future__ import annotations

import argparse
import os
import sys
import urllib.parse
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import bootstrap  # noqa: E402

#: Session shards of the server: one per client connection of ``warm_http``.
WORKERS = 2


def _trace_requests(recorder, handler_class) -> None:
    """Make each HTTP request a root span keyed by its ``op`` query parameter."""
    handle = handler_class._handle

    def traced_handle(self, method):
        query = urllib.parse.urlsplit(self.path).query
        op = urllib.parse.parse_qs(query).get("op", [None])[0]
        span = recorder.begin("service.http", op=int(op) if op is not None else None)
        try:
            return handle(self, method)
        finally:
            recorder.end(span, reset_op=True)

    handler_class._handle = traced_handle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    bootstrap()
    from repro.service.server import _ServiceRequestHandler, create_server

    recorder = None
    if args.spans:
        from perfbench.tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
        _trace_requests(recorder, _ServiceRequestHandler)
    server = create_server(port=0, pool_size=WORKERS, backend="thread")
    staging = f"{args.port_file}.tmp"
    with open(staging, "w", encoding="utf-8") as handle:
        handle.write(str(server.server_port))
    os.replace(staging, args.port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        if recorder is not None:
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
