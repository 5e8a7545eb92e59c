"""NDJSON-over-TCP front end for :class:`QueryService`.

``asyncio.start_server`` accept loop; each connection is a stream of
newline-delimited JSON messages, answered in order on the same socket.
All real work — admission, deadlines, engine execution — lives in
:class:`~repro.service.service.QueryService`; this module only frames
bytes and maps junk input to ``BAD_REQUEST`` without dropping the
connection.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from repro.common.errors import ServiceError
from repro.service.protocol import (
    BAD_REQUEST,
    QueryRequest,
    QueryResponse,
    bad_request,
    decode_message,
    encode_message,
)
from repro.service.service import QueryService

#: Refuse absurd frames before json-parsing them (1 MiB per line).
MAX_LINE_BYTES = 1 << 20


class QueryServer:
    """Serve a :class:`QueryService` on a TCP host/port."""

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0`` (ephemeral)."""
        if self._server is None:
            raise ServiceError("server is not running")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    async def stop(self, drain: bool = True) -> None:
        """Close the listener, then shut the service (and engine) down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown(drain=drain)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        QueryResponse.failure(
                            "", BAD_REQUEST,
                            f"message exceeds {MAX_LINE_BYTES} bytes",
                        ).to_dict(),
                    )
                    break
                if not line:
                    break  # client closed its end
                if not line.strip():
                    continue  # bare keep-alive newline
                await self._send(writer, await self._dispatch(line))
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-write; nothing to answer
        finally:
            # No wait_closed(): every write was drained, and awaiting the
            # close handshake here leaves the handler task alive across
            # loop teardown (noisy CancelledError in 3.11's streams).
            writer.close()

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        try:
            payload = decode_message(line)
        except ServiceError as exc:
            return bad_request(None, str(exc)).to_dict()
        kind = payload.get("kind", "query")
        if kind == "stats":
            return await self.service.stats()
        if kind != "query":
            return bad_request(
                payload,
                f"unknown message kind {kind!r}; expected 'query' or 'stats'",
            ).to_dict()
        try:
            request = QueryRequest.from_dict(payload)
        except ServiceError as exc:
            return bad_request(payload, str(exc)).to_dict()
        response = await self.service.handle(request)
        return response.to_dict()

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
        writer.write(encode_message(payload))
        await writer.drain()
