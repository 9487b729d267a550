"""`NetFrontend`: the HTTP wire over :class:`repro.serve.FerexServer`.

The serving story so far ends at an in-process asyncio facade; this
module is where traffic from outside the process comes in.  One
front-end owns one listening socket and speaks the JSON API below;
every connection is one asyncio task, so concurrent wire requests land
on the server concurrently — and therefore coalesce into the same
micro-batches in-process callers would have formed.

Endpoints
---------
``POST /v1/search``
    ``{"query": [...], "k": 3, "deadline_ms": 50}`` →
    ``{"ids": [...], "distances": [...]}``.  Bit-identical to
    ``FerexIndex.search(query[None], k)``.
``POST /v1/search_batch``
    ``{"queries": [[...], ...], "k": 3}`` → stacked rows.  Each row
    rides the coalescer independently, so one wire batch micro-batches
    with every other request in flight.
``POST /v1/add`` / ``POST /v1/remove``
    Bulk writes through the single-writer path.  JSON bodies
    (``{"vectors": [[...]]}`` / ``{"ids": [...]}``) or streaming
    NDJSON (``application/x-ndjson``, one ``{"vector": [...]}`` /
    ``{"id": ...}`` object per line) applied chunk-by-chunk as the
    body arrives — a bulk load larger than memory never buffers whole.
``POST /v1/compact`` / ``POST /v1/reconfigure``
    Maintenance writes; reconfigure takes ``{"bits":, "metric":}`` and
    re-voltages the whole index online, under live wire traffic — or
    ``{"top_p":, "n_clusters":}`` to move the routed backend's probe
    width / cluster count (one kind per request).  Any other key is a
    ``400`` before anything is written.
``GET /healthz``
    Liveness + pool integrity (``503`` once the process pool is
    broken).
``GET /metrics``
    One JSON document: the :class:`~repro.serve.stats.ServerStats`
    snapshot (its ``cache`` section carries both lifetime and
    windowed — since-last-invalidation — hit accounting), wire
    counters, admission budget, pool state.  Plain ints/floats
    throughout — ``json.dumps`` clean.

The two row-carrying endpoints, ``/v1/search_batch`` and ``/v1/add``,
have one codec each way: the rows come from a JSON body or from one
binary ``application/x-ferex-batch`` array frame, chosen by
``Content-Type``; the answer is JSON or a binary frame (a result frame
for search, the assigned ids as an array frame for add), chosen by
``Accept`` — raw little-endian array bytes instead of per-component
JSON numbers; see :mod:`repro.serve.net.protocol` for the frame
layout.  Errors are always JSON.

Overload behaviour (admission + deadlines) is the point of the layer:
requests beyond the pending budget are shed instantly with ``429`` +
``Retry-After``; admitted requests whose deadline expires while queued
are rejected with ``503`` + ``Retry-After`` *before* dispatch (the
coalescer drops them at flush).  Under any sustained overload the
queue — and with it served p99 — stays bounded.

Non-finite distances (the ``(-1, inf)`` padding rows served when ``k``
exceeds the live row count) cross the wire as ``null``: the API emits
strict JSON that any client stack parses.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import Counter
from contextlib import nullcontext
from typing import Optional, Tuple

import numpy as np

from ...core.engine import NotProgrammedError
from ..coalescer import DeadlineExceededError
from ..procpool import PoolBrokenError
from ..server import FerexServer
from .admission import AdmissionController, AdmissionError
from .protocol import (
    BINARY_CONTENT_TYPE,
    HttpError,
    Request,
    error_body,
    iter_body_lines,
    json_body,
    pack_array_frame,
    pack_result_frame,
    read_body,
    read_request,
    unpack_array_frame,
    write_response,
)

#: Retry-After attached to 503 shedding responses (deadline expiry,
#: broken pool) when no admission controller supplies one.
_DEFAULT_RETRY_AFTER_S = 0.05

#: The keys each JSON body may carry.  Any other key is refused:
#: ignoring it would apply the rest of the body as if the caller had not
#: asked for more (a misspelled ``top_k`` silently answering k = 1).
_SEARCH_KEYS = frozenset({"query", "k", "deadline_ms"})
_SEARCH_BATCH_KEYS = frozenset({"queries", "k", "deadline_ms"})
_ADD_KEYS = frozenset({"vectors", "ids"})
_REMOVE_KEYS = frozenset({"ids"})
_RECONFIGURE_KEYS = frozenset({"bits", "metric", "top_p", "n_clusters"})


#: What every handler returns: ``(status, body, content_type)``.
Reply = Tuple[int, bytes, str]


def _wire_distances(distances: np.ndarray) -> list:
    """Distances as strict-JSON floats, non-finite rows as ``None``."""
    return [
        float(d) if math.isfinite(d) else None for d in distances.tolist()
    ]


def _json(payload: dict) -> Reply:
    return 200, json_body(payload), "application/json"


def _rows_reply(
    request: Request,
    ids: np.ndarray,
    distances: Optional[np.ndarray] = None,
    **fields,
) -> Reply:
    """The writer of the row-carrying endpoints: a binary frame when
    ``Accept`` asks for one — a result frame for ``(ids, distances)``,
    an array frame for bare ids — else JSON ``ids`` (and ``distances``,
    non-finite as ``null``) followed by ``fields``."""
    if BINARY_CONTENT_TYPE in request.headers.get("accept", ""):
        if distances is None:
            frame = pack_array_frame(np.ascontiguousarray(ids, dtype="<i8"))
        else:
            frame = pack_result_frame(ids, distances)
        return 200, frame, BINARY_CONTENT_TYPE
    payload = {"ids": ids.tolist()}
    if distances is not None:
        payload["distances"] = [_wire_distances(row) for row in distances]
    return _json({**payload, **fields})


class NetFrontend:
    """Serve :class:`FerexServer` over HTTP/1.1.

    Parameters
    ----------
    server:
        The in-process serving facade.  The front-end does not own it:
        closing the front-end stops the wire but leaves the server
        serving in-process callers.
    host / port:
        Bind address; port ``0`` picks a free port (see
        :attr:`bound_port` after :meth:`start`).
    admission:
        Optional :class:`AdmissionController`; without one, nothing is
        shed and overload queues unboundedly (fine for trusted
        in-process benches, wrong for a real wire).
    default_deadline_ms:
        Deadline applied to read requests that do not send their own
        ``deadline_ms``; a client deadline below the default wins.
        ``None`` = no implicit deadline.
    max_body_bytes:
        Request-body cap (``413`` beyond it) — for both buffered JSON
        and streamed NDJSON bodies.
    write_chunk_rows:
        NDJSON streaming writes are applied to the index every this
        many rows.
    """

    def __init__(
        self,
        server: FerexServer,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        default_deadline_ms: Optional[float] = None,
        max_body_bytes: int = 8 * 1024 * 1024,
        write_chunk_rows: int = 256,
    ):
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0")
        if write_chunk_rows < 1:
            raise ValueError("write_chunk_rows must be >= 1")
        self._server = server
        self._host = host
        self._port = port
        self.admission = admission
        self.default_deadline_ms = default_deadline_ms
        self.max_body_bytes = int(max_body_bytes)
        self.write_chunk_rows = int(write_chunk_rows)
        self._listener: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        # Wire counters — event-loop confined, like ServerStats.
        self.n_connections = 0
        self.n_requests = 0
        self.n_shed_429 = 0
        self.n_shed_503 = 0
        #: Request/response body bytes moved over the wire (heads not
        #: counted — the payload traffic is what capacity planning
        #: needs).
        self.bytes_in = 0
        self.bytes_out = 0
        self.status_counts: Counter = Counter()
        self.path_counts: Counter = Counter()
        self._routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/v1/search"): self._handle_search,
            ("POST", "/v1/search_batch"): self._handle_search_batch,
            ("POST", "/v1/add"): self._handle_add,
            ("POST", "/v1/remove"): self._handle_remove,
            ("POST", "/v1/compact"): self._handle_compact,
            ("POST", "/v1/reconfigure"): self._handle_reconfigure,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the socket; returns the bound ``(host, port)``."""
        if self._listener is not None:
            raise RuntimeError("front-end is already started")
        self._listener = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._port = self._listener.sockets[0].getsockname()[1]
        return self._host, self._port

    @property
    def bound_port(self) -> int:
        if self._listener is None:
            raise RuntimeError("front-end is not started")
        return self._port

    @property
    def server(self) -> FerexServer:
        return self._server

    async def close(self) -> None:
        """Stop accepting and close the listener.  The underlying
        :class:`FerexServer` stays open (the caller owns it)."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        # Idle keep-alive connections would otherwise linger (and show
        # up as cancelled-task noise at loop teardown): cancel and
        # drain them.  In-flight requests are cut — close() is
        # shutdown, not drain; the FerexServer's own close() drains.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )

    async def __aenter__(self) -> "NetFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.n_connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    self._respond_error(writer, exc, keep_alive=False)
                    await writer.drain()
                    return
                if request is None:
                    return
                keep_alive = request.keep_alive
                self.n_requests += 1
                self.path_counts[request.path] += 1
                try:
                    handler = self._routes.get(
                        (request.method, request.path)
                    )
                    if handler is None:
                        known_paths = {
                            path for _, path in self._routes
                        }
                        if request.path in known_paths:
                            raise HttpError(
                                405,
                                f"{request.method} not allowed on "
                                f"{request.path}",
                            )
                        raise HttpError(404, f"no route {request.path}")
                    status, body, content_type = await handler(
                        request, reader
                    )
                    self.status_counts[status] += 1
                    self.bytes_out += len(body)
                    write_response(
                        writer,
                        status,
                        body,
                        content_type=content_type,
                        keep_alive=keep_alive,
                    )
                except HttpError as exc:
                    # A half-read body would parse as the next
                    # request's head; such connections cannot survive
                    # the error.
                    keep_alive = keep_alive and request.body_consumed
                    self._respond_error(writer, exc, keep_alive)
                except Exception as exc:
                    keep_alive = keep_alive and request.body_consumed
                    self._respond_error(
                        writer, self._classify(exc), keep_alive
                    )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            # The peer vanished mid-exchange; nothing to answer.
            return
        except asyncio.CancelledError:
            # close() is tearing the front-end down; end the handler
            # cleanly (a task left in the cancelled state trips noisy
            # exception callbacks inside asyncio streams).
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _classify(self, exc: Exception) -> HttpError:
        """Map serving-layer exceptions onto wire statuses."""
        if isinstance(exc, AdmissionError):
            return HttpError(
                429, str(exc), retry_after_s=exc.retry_after_s
            )
        if isinstance(exc, (DeadlineExceededError, PoolBrokenError)):
            return HttpError(
                503, str(exc), retry_after_s=self._retry_after_s()
            )
        if isinstance(exc, RuntimeError) and "closed" in str(exc):
            return HttpError(503, str(exc))
        if isinstance(exc, NotProgrammedError):
            return HttpError(409, str(exc))
        if isinstance(exc, (ValueError, TypeError, KeyError)):
            return HttpError(400, str(exc))
        return HttpError(500, f"{type(exc).__name__}: {exc}")

    def _retry_after_s(self) -> float:
        if self.admission is not None:
            return self.admission.retry_after_s
        return _DEFAULT_RETRY_AFTER_S

    def _respond_error(
        self,
        writer: asyncio.StreamWriter,
        exc: HttpError,
        keep_alive: bool,
    ) -> None:
        if exc.status == 429:
            self.n_shed_429 += 1
        elif exc.status == 503:
            self.n_shed_503 += 1
        self.status_counts[exc.status] += 1
        extra = []
        if exc.retry_after_s is not None:
            # Fractional seconds: the spec's integer-seconds field is
            # too coarse for sub-second micro-batch drains.
            extra.append(("Retry-After", f"{exc.retry_after_s:.3f}"))
        body = error_body(exc.status, exc.message)
        self.bytes_out += len(body)
        write_response(
            writer,
            exc.status,
            body,
            keep_alive=keep_alive,
            extra_headers=extra,
        )

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    async def _read_raw(self, request: Request, reader) -> bytes:
        body = await read_body(reader, request, self.max_body_bytes)
        self.bytes_in += len(body)
        return body

    async def _read_json(
        self, request: Request, reader, allowed: frozenset = frozenset()
    ) -> dict:
        """The JSON object body, refused with a 400 naming any key
        outside ``allowed``."""
        body = await self._read_raw(request, reader)
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"malformed JSON body: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise HttpError(
                400,
                f"unknown keys {unknown} for {request.path}; it takes "
                f"{sorted(allowed)}",
            )
        return payload

    def _deadline(self, payload: dict, request: Request) -> Optional[float]:
        """Resolve the effective absolute deadline (loop time): the
        tighter of the client's ``deadline_ms`` (body field or
        ``X-Deadline-Ms`` header) and the configured default."""
        raw = payload.get("deadline_ms")
        if raw is None:
            raw = request.headers.get("x-deadline-ms")
        client_ms: Optional[float] = None
        if raw is not None:
            try:
                client_ms = float(raw)
            except (TypeError, ValueError):
                raise HttpError(400, f"malformed deadline_ms: {raw!r}")
            if client_ms <= 0:
                raise HttpError(400, "deadline_ms must be > 0")
        budgets = [
            ms
            for ms in (client_ms, self.default_deadline_ms)
            if ms is not None
        ]
        if not budgets:
            return None
        return asyncio.get_running_loop().time() + min(budgets) / 1000.0

    @staticmethod
    def _parse_k(payload: dict) -> int:
        k = payload.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool):
            raise HttpError(400, f"k must be an integer, got {k!r}")
        return k

    def _admit(self, rows: int):
        if self.admission is None:
            return nullcontext()
        return self.admission.admit(rows)

    async def _read_rows(
        self, request: Request, reader, field: str, allowed: frozenset
    ) -> Tuple[np.ndarray, dict]:
        """The reader of the row-carrying endpoints: ``(rows, fields)``
        from one binary array frame (its header ``k`` is the only
        field) or from a JSON body carrying ``field`` and no key outside
        ``allowed``, chosen by ``Content-Type``.  Either way the rows
        must be 2-D."""
        if request.content_type == BINARY_CONTENT_TYPE:
            body = await self._read_raw(request, reader)
            rows, k = unpack_array_frame(body)
            payload = {"k": k}
        else:
            payload = await self._read_json(request, reader, allowed)
            if field not in payload:
                raise HttpError(400, f"body must carry {field!r}")
            rows = np.asarray(payload[field])
        if rows.ndim != 2:
            raise HttpError(
                400, f"{field} must be a 2-D array, got shape {rows.shape}"
            )
        return rows, payload

    # ------------------------------------------------------------------
    # Read endpoints
    # ------------------------------------------------------------------
    async def _handle_search(self, request: Request, reader) -> Reply:
        payload = await self._read_json(request, reader, _SEARCH_KEYS)
        if "query" not in payload:
            raise HttpError(400, "body must carry 'query'")
        k = self._parse_k(payload)
        deadline = self._deadline(payload, request)
        query = np.asarray(payload["query"])
        with self._admit(1):
            outcome = await self._server.search(
                query, k=k, deadline=deadline
            )
        return _json(
            {
                "ids": outcome.ids.tolist(),
                "distances": _wire_distances(outcome.distances),
            }
        )

    async def _handle_search_batch(self, request: Request, reader) -> Reply:
        queries, payload = await self._read_rows(
            request, reader, "queries", _SEARCH_BATCH_KEYS
        )
        k = self._parse_k(payload)
        deadline = self._deadline(payload, request)
        with self._admit(max(len(queries), 1)):
            outcome = await self._server.search_many(
                queries, k=k, deadline=deadline
            )
        return _rows_reply(
            request, outcome.ids, outcome.distances, n=len(queries)
        )

    # ------------------------------------------------------------------
    # Write endpoints (single-writer path, optionally streamed)
    # ------------------------------------------------------------------
    async def _handle_add(self, request: Request, reader) -> Reply:
        if request.content_type == "application/x-ndjson":
            return await self._streamed_add(request, reader)
        vectors, payload = await self._read_rows(
            request, reader, "vectors", _ADD_KEYS
        )
        assigned = await self._server.add(vectors, ids=payload.get("ids"))
        return _rows_reply(request, assigned, count=len(assigned))

    async def _streamed_add(self, request: Request, reader) -> Reply:
        """NDJSON bulk load: rows are applied through the single-writer
        path every ``write_chunk_rows`` lines, while the body is still
        arriving.  Chunks already applied stay applied if a later line
        is malformed — the response's ``count`` always tells the truth
        about what landed."""
        rows: list = []
        row_ids: list = []
        assigned: list = []
        has_ids: Optional[bool] = None

        async def flush():
            if not rows:
                return
            new_ids = await self._server.add(
                np.asarray(rows), ids=(row_ids if has_ids else None)
            )
            assigned.extend(int(i) for i in new_ids.tolist())
            rows.clear()
            row_ids.clear()

        async for line in iter_body_lines(
            reader, request, self.max_body_bytes
        ):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HttpError(
                    400,
                    f"malformed NDJSON line after {len(assigned)} "
                    f"applied rows: {exc}",
                )
            if not isinstance(obj, dict) or "vector" not in obj:
                raise HttpError(
                    400, "each NDJSON line must be {'vector': [...]}"
                )
            line_has_id = "id" in obj
            if has_ids is None:
                has_ids = line_has_id
            elif has_ids != line_has_id:
                raise HttpError(
                    400,
                    "NDJSON stream mixes rows with and without 'id'",
                )
            rows.append(obj["vector"])
            if has_ids:
                row_ids.append(obj["id"])
            if len(rows) >= self.write_chunk_rows:
                await flush()
        await flush()
        self.bytes_in += request.content_length
        return _json({"ids": assigned, "count": len(assigned)})

    async def _handle_remove(self, request: Request, reader) -> Reply:
        if request.content_type == "application/x-ndjson":
            return await self._streamed_remove(request, reader)
        payload = await self._read_json(request, reader, _REMOVE_KEYS)
        if "ids" not in payload:
            raise HttpError(400, "body must carry 'ids'")
        removed = await self._server.remove(payload["ids"])
        return _json({"removed": int(removed)})

    async def _streamed_remove(self, request: Request, reader) -> Reply:
        ids: list = []
        removed = 0

        async def flush():
            nonlocal removed
            if not ids:
                return
            removed += int(await self._server.remove(list(ids)))
            ids.clear()

        async for line in iter_body_lines(
            reader, request, self.max_body_bytes
        ):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HttpError(
                    400,
                    f"malformed NDJSON line after {removed} removed: "
                    f"{exc}",
                )
            if not isinstance(obj, dict) or "id" not in obj:
                raise HttpError(
                    400, "each NDJSON line must be {'id': ...}"
                )
            ids.append(obj["id"])
            if len(ids) >= self.write_chunk_rows:
                await flush()
        await flush()
        self.bytes_in += request.content_length
        return _json({"removed": removed})

    async def _handle_compact(self, request: Request, reader) -> Reply:
        await self._read_json(request, reader)  # drain (empty) body
        await self._server.compact()
        return _json({"ok": True})

    async def _handle_reconfigure(self, request: Request, reader) -> Reply:
        payload = await self._read_json(request, reader, _RECONFIGURE_KEYS)
        bits = payload.get("bits")
        metric = payload.get("metric")
        top_p = payload.get("top_p")
        n_clusters = payload.get("n_clusters")
        voltage = (bits, metric) != (None, None)
        routing = (top_p, n_clusters) != (None, None)
        if not voltage and not routing:
            raise HttpError(
                400,
                "body must carry at least one of bits/metric "
                "(voltage) or top_p/n_clusters (routing)",
            )
        if voltage and routing:
            raise HttpError(
                400,
                "voltage (bits/metric) and routing "
                "(top_p/n_clusters) reconfigures are separate write "
                "transactions; send two requests",
            )
        if routing:
            await self._server.reconfigure_routing(
                top_p=top_p, n_clusters=n_clusters
            )
        else:
            await self._server.reconfigure(bits=bits, metric=metric)
        return _json(
            {
                "ok": True,
                "write_generation": int(self._server.write_generation),
            }
        )

    # ------------------------------------------------------------------
    # Health + metrics
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request, reader) -> Reply:
        await self._read_json(request, reader)
        server = self._server
        pool = server.pool
        if pool is not None and pool.broken:
            raise HttpError(
                503, "process pool is broken", retry_after_s=None
            )
        payload = {
            "status": "ok",
            "write_generation": int(server.write_generation),
        }
        if pool is not None:
            payload["pool_workers"] = int(pool.n_workers)
        return _json(payload)

    async def _handle_metrics(self, request: Request, reader) -> Reply:
        await self._read_json(request, reader)
        payload = {
            "server": self._server.stats.snapshot(),
            "net": self.snapshot(),
        }
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        if self._server.pool is not None:
            payload["pool"] = {
                key: value
                if not isinstance(value, list)
                else [int(v) for v in value]
                for key, value in self._server.pool.snapshot().items()
            }
        return _json(payload)

    def snapshot(self) -> dict:
        """JSON-ready wire counters (one section of ``/metrics``)."""
        return {
            "n_connections": int(self.n_connections),
            "n_requests": int(self.n_requests),
            "n_shed_429": int(self.n_shed_429),
            "n_shed_503": int(self.n_shed_503),
            "bytes_in": int(self.bytes_in),
            "bytes_out": int(self.bytes_out),
            "status_counts": {
                str(int(status)): int(count)
                for status, count in sorted(self.status_counts.items())
            },
            "path_counts": {
                str(path): int(count)
                for path, count in sorted(self.path_counts.items())
            },
        }

    def __repr__(self) -> str:
        bound = self._port if self._listener is not None else "unbound"
        shed = self.n_shed_429 + self.n_shed_503
        return (
            f"NetFrontend({self._host}:{bound}, "
            f"requests={self.n_requests}, shed={shed})"
        )
