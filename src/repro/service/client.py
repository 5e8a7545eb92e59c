"""Clients for the query service: in-process and TCP.

:class:`InProcessClient` calls :meth:`QueryService.handle` directly on
the running event loop — no sockets, no serialization — which is what the
load harness and the CI smoke use: it exercises admission, deadlines and
the thread-pool bridge without measuring the kernel's TCP stack.

:class:`TCPClient` speaks the NDJSON wire protocol over a real socket,
one request/response at a time per connection (the server answers in
order, so a connection is a serial channel; open several for
concurrency).
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping, Optional

from repro.common.errors import ServiceError
from repro.service.protocol import (
    QueryRequest,
    QueryResponse,
    bad_request,
    decode_message,
    encode_message,
)
from repro.service.server import MAX_LINE_BYTES
from repro.service.service import QueryService


class InProcessClient:
    """Zero-copy client: requests go straight into the service."""

    def __init__(self, service: QueryService) -> None:
        self.service = service

    async def query(
        self, request: QueryRequest | Mapping[str, Any]
    ) -> QueryResponse:
        """Serve one request.

        A wire-shaped mapping is decoded first; one that does not decode
        answers ``BAD_REQUEST``, exactly as the TCP server would.
        """
        if not isinstance(request, QueryRequest):
            try:
                request = QueryRequest.from_dict(request)
            except ServiceError as exc:
                return bad_request(request, str(exc))
        return await self.service.handle(request)

    async def stats(self) -> dict[str, Any]:
        return await self.service.stats()


class TCPClient:
    """One NDJSON connection to a running :class:`QueryServer`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "TCPClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "TCPClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _round_trip(self, payload: dict[str, Any]) -> dict[str, Any]:
        if self._reader is None or self._writer is None:
            raise ServiceError("client is not connected; call connect()")
        self._writer.write(encode_message(payload))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServiceError("server closed the connection")
        return decode_message(line)

    async def query(self, request: QueryRequest) -> QueryResponse:
        return QueryResponse.from_dict(
            await self._round_trip(request.to_dict())
        )

    async def stats(self) -> dict[str, Any]:
        return await self._round_trip({"kind": "stats"})
