"""Tiny threaded chat-completions mock for adapter tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Optional


class MockChatServer:
    """Serves POST /chat/completions, answering with canned replies in order.
    Repeats the last reply when the list runs out. ``status`` sets the HTTP
    status of every answer; ``raw_body``, when given, is sent as the body in
    place of a completion document."""

    def __init__(self, replies: list[str], status: int = 200, raw_body: Optional[bytes] = None) -> None:
        self.replies = list(replies)
        self.requests: list[dict] = []
        self._cursor = 0
        self._lock = threading.Lock()

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                with outer._lock:
                    outer.requests.append(body)
                    idx = min(outer._cursor, len(outer.replies) - 1)
                    reply = outer.replies[idx]
                    outer._cursor += 1
                doc = {
                    "id": "mock-1",
                    "object": "chat.completion",
                    "model": body.get("model", "mock"),
                    "choices": [
                        {"index": 0, "message": {"role": "assistant", "content": reply},
                         "finish_reason": "stop"}
                    ],
                }
                payload = json.dumps(doc).encode("utf-8") if raw_body is None else raw_body
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
