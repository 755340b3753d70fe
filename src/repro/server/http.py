"""Minimal HTTP/1.1 framing over asyncio streams, stdlib-only.

Just enough protocol for the service's JSON + SSE surface — request
line, headers, ``Content-Length`` bodies, fixed-length responses, and
chunk-free streaming responses that end by connection close (the SSE
contract).  Every connection is ``Connection: close``: the clients this
serves (curl, test harnesses, SDK loops) reconnect cheaply, and
dropping keep-alive removes a whole class of framing bugs from
hand-rolled parsing.

The parser is deliberately strict and bounded: oversized request lines,
header blocks, or bodies are rejected with 4xx rather than buffered —
the server fronts a simulation fleet, not the open internet, but it
should never be trivially OOM-able either.
"""

from __future__ import annotations

import asyncio
import re
from collections.abc import AsyncIterator
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: Bounds on the request head (line + headers) and default body cap.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_HEADERS = 64

#: A field name is an RFC 9110 token: no whitespace, so none before
#: the colon either (RFC 9112 §5.1).
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed or over-limit request; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  # lower-cased names
    body: bytes = b""


@dataclass
class Response:
    """One response: a fixed JSON body or a streaming (SSE) generator."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json; charset=utf-8"
    headers: dict[str, str] = field(default_factory=dict)
    #: when set, the body is streamed from this async iterator and the
    #: response ends by connection close (SSE)
    stream: AsyncIterator[bytes] | None = None


async def read_request(reader: asyncio.StreamReader,
                       max_body: int) -> Request | None:
    """Parse one request off the stream.

    Returns None on a clean EOF before any bytes (client closed an idle
    connection); raises :class:`HttpError` on malformed input.
    """
    try:
        raw_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request line") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long") from None
    if len(raw_line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = raw_line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {raw_line!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    total = 0
    for _ in range(MAX_HEADERS + 1):
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated headers") from None
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "header block too large")
        line = raw.decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, sep, value = line.partition(":")
        if not sep or not _FIELD_NAME.fullmatch(name):
            raise HttpError(400, f"malformed header line: {line!r}")
        name = name.lower()
        # Two Content-Lengths leave the body's end ambiguous
        # (RFC 9112 §6.3): refuse rather than pick one.
        if name == "content-length" and name in headers:
            raise HttpError(400, "repeated Content-Length")
        # Optional whitespace around a field value is SP / HTAB only.
        headers[name] = value.strip(" \t")
    else:
        raise HttpError(400, "too many headers")

    body = b""
    if "content-length" in headers:
        # ASCII digits only: int() would also take "+5", "1_0" or a
        # form-feed-padded "\f5", none of which is a valid Content-Length.
        raw_length = headers["content-length"]
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpError(400, "invalid Content-Length")
        try:
            length = int(raw_length)
        except ValueError:  # more digits than int() will parse
            raise HttpError(400, "invalid Content-Length") from None
        if length > max_body:
            raise HttpError(413, f"request body exceeds {max_body} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than "
                                 "Content-Length") from None
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported; "
                             "send Content-Length")

    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unclosed IPv6 bracket in the authority
        raise HttpError(400, f"malformed request target: {target!r}") from None
    query = {k: v for k, v in parse_qsl(split.query, keep_blank_values=True)}
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(response: Response) -> bytes:
    reason = STATUS_REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    headers = {
        "Content-Type": response.content_type,
        "Connection": "close",
        **response.headers,
    }
    if response.stream is None:
        headers["Content-Length"] = str(len(response.body))
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(writer: asyncio.StreamWriter,
                         response: Response) -> None:
    """Send one response; streams the body when ``stream`` is set."""
    writer.write(_head(response))
    if response.stream is None:
        writer.write(response.body)
        await writer.drain()
        return
    await writer.drain()
    async for chunk in response.stream:
        writer.write(chunk)
        await writer.drain()


__all__ = [
    "MAX_REQUEST_LINE",
    "MAX_HEADER_BYTES",
    "STATUS_REASONS",
    "HttpError",
    "Request",
    "Response",
    "read_request",
    "write_response",
]
