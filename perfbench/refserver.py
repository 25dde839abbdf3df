"""The reference HTTP server for serve-warm's host-speed reference.

A fixed stdlib ``ThreadingHTTPServer`` answering ``POST`` with a fixed
~1 KB JSON body: the same connect, thread, parse and respond path as a
``satr serve`` request, without the program's work.  Usage::

    python3 perfbench/refserver.py PORT_FILE

It binds an ephemeral port on 127.0.0.1, writes the port to PORT_FILE
and serves until terminated.
"""

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BODY = (json.dumps({"state": "done", "report": "x" * 900}) + "\n").encode()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args) -> None:
        return None

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        length = int(self.headers.get("Content-Length") or 0)
        json.loads(self.rfile.read(length) or b"{}")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)


class _Server(ThreadingHTTPServer):
    daemon_threads = True


def main(port_file: str) -> None:
    server = _Server(("127.0.0.1", 0), _Handler)
    with open(port_file, "w", encoding="ascii") as handle:
        handle.write(f"{server.server_address[1]}\n")
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1])
