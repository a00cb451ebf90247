"""Chat-model test doubles: a tiny threaded chat-completions server, and a
backend that replays canned replies without one."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Optional

from homeloop.errors import TransportError


class MockChatServer:
    """Serves POST /chat/completions, answering with canned replies in order.
    Repeats the last reply when the list runs out. ``status`` sets the HTTP
    status of every answer; ``raw_body``, when given, is sent as the body in
    place of a completion document; ``delay`` is the seconds each answer
    waits before it is sent. Each request's body is kept in ``requests`` and
    its headers, looked up by any case, in ``headers``."""

    def __init__(self, replies: list[str], status: int = 200, raw_body: Optional[bytes] = None,
                 delay: float = 0.0) -> None:
        self.replies = list(replies)
        self.requests: list[dict] = []
        self.headers: list = []
        self._cursor = 0
        self._lock = threading.Lock()

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                with outer._lock:
                    outer.requests.append(body)
                    outer.headers.append(self.headers)
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
                time.sleep(delay)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        # a short poll: ``shutdown`` waits for the serving loop's next poll
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True)

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


@dataclass
class TranscriptBackend:
    """Replays recorded replies in order; used for offline fixtures."""

    replies: list[str]
    requests_seen: list[list[dict[str, str]]] = field(default_factory=list)
    cursor: int = 0

    @staticmethod
    def from_file(path: str) -> "TranscriptBackend":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return TranscriptBackend(replies=list(doc["replies"]))

    def complete(self, messages: list[dict[str, str]]) -> str:
        self.requests_seen.append([dict(m) for m in messages])
        if self.cursor >= len(self.replies):
            raise TransportError("transcript exhausted")
        reply = self.replies[self.cursor]
        self.cursor += 1
        return reply
