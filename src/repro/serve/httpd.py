"""Minimal HTTP/1.1 plumbing over :mod:`asyncio` streams.

Stdlib only, by design (the container bakes in no web framework, and
the endpoints are a handful of JSON routes plus one NDJSON stream) --
so this module implements exactly the slice of HTTP the serve API
needs and nothing more:

* request line + headers + ``Content-Length`` bodies (no chunked
  *request* bodies, no pipelining, one request per connection --
  ``Connection: close`` is always answered);
* responses with a known body, or an incrementally written NDJSON
  stream (``Content-Type: application/x-ndjson``) flushed line by
  line, which every HTTP client can consume without chunked-decoding
  gymnastics because the connection close delimits the stream;
* the request body limit is enforced *while reading*: a declared
  ``Content-Length`` over the cap aborts with 413 before a byte of the
  body is buffered, so an oversized payload cannot balloon the server.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

#: hard cap on the request head (request line + headers)
MAX_HEAD_BYTES = 16 * 1024

STATUS_PHRASES = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Protocol-level failure carrying the HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    method: str
    path: str  #: path only, query string already split off
    query: dict[str, str]
    headers: dict[str, str]  #: header names lowercased
    body: bytes

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


def _parse_query(raw: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        out[key] = value
    return out


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Request | None:
    """Parse one request off the stream; ``None`` on a clean EOF
    (client closed without sending anything)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head too large")
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    path, _, raw_query = target.partition("?")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "malformed Content-Length")
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > max_body_bytes:
        raise HttpError(
            413, f"request body {length} bytes exceeds the "
                 f"{max_body_bytes}-byte limit"
        )
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HttpError(400, "truncated request body")
    return Request(
        method=method.upper(), path=path, query=_parse_query(raw_query),
        headers=headers, body=body,
    )


@dataclass
class Response:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        return cls(
            status=status,
            body=(json.dumps(payload, indent=1) + "\n").encode("utf-8"),
        )

    @classmethod
    def text(cls, text: str, status: int = 200,
             content_type: str = "text/plain; charset=utf-8") -> "Response":
        return cls(status=status, body=text.encode("utf-8"),
                   content_type=content_type)

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message, "status": status}, status=status)

    def head_bytes(self) -> bytes:
        phrase = STATUS_PHRASES.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {phrase}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        lines.extend(f"{k}: {v}" for k, v in self.headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    writer.write(response.head_bytes() + response.body)
    await writer.drain()


async def start_ndjson(
    writer: asyncio.StreamWriter, status: int = 200
) -> None:
    """Write the head of a close-delimited NDJSON stream."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1"))
    await writer.drain()


async def write_ndjson_line(
    writer: asyncio.StreamWriter, payload: Any
) -> None:
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()
