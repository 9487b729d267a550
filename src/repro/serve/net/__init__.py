"""The network front-end: HTTP wire protocol over
:class:`repro.serve.FerexServer`.

* :class:`NetFrontend` — dependency-free asyncio HTTP/1.1 front-end:
  search endpoints riding the request coalescer, with one JSON-or-frame
  codec per row-carrying endpoint, streaming NDJSON bulk writes through
  the single-writer path, ``/healthz`` and ``/metrics``;
* :class:`AdmissionController` — bounded pending budget; overload is
  shed with ``429`` + ``Retry-After`` instead of queued without limit;
* :class:`HttpClient` — the matching minimal asyncio client (tests,
  benches, examples).
"""

from .admission import AdmissionController, AdmissionError
from .client import HttpClient, Response
from .frontend import NetFrontend
from .protocol import (
    BINARY_CONTENT_TYPE,
    HttpError,
    pack_array_frame,
    pack_result_frame,
    unpack_array_frame,
    unpack_result_frame,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "BINARY_CONTENT_TYPE",
    "HttpClient",
    "HttpError",
    "NetFrontend",
    "Response",
    "pack_array_frame",
    "pack_result_frame",
    "unpack_array_frame",
    "unpack_result_frame",
]
