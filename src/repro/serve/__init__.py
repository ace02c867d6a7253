"""The long-running multi-tenant query service.

:class:`Server` serves named/RXL queries from many concurrent clients
over one shared :class:`~repro.session.Session` — shared result caches,
request coalescing, per-tenant admission quotas, and live incremental
maintenance under mutations — either in-process (tests, embedding) or
over a socket front end — JSON lines, a query's document as a counted
body after its header line (:class:`ServeClient`,
``python -m repro serve``).  See :mod:`repro.serve.server` for the
architecture notes.
"""

from repro.serve.client import ServeClient
from repro.serve.protocol import ServeError
from repro.serve.server import Server

__all__ = ["Server", "ServeClient", "ServeError"]
