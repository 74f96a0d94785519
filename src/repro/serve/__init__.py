"""Scenario-as-a-service: the ``repro serve`` HTTP front end.

Long-lived process exposing the scenario substrate over JSON/HTTP —
warm requests answer straight from the content-addressed
:class:`~repro.scenarios.cache.ResultCache` (zero simulation steps),
cold ones become work items of the same
:class:`~repro.scenarios.scheduler.WorkQueue` the sweep-worker fleet
drains.  Stdlib only (``http.server``); all substance lives in
:mod:`repro.api` so CLI, server and library callers share one code
path and byte-identical JSON.
"""

from .http import ReproServer, create_server
from .jobs import JobRecord, JobStore

__all__ = ["JobRecord", "JobStore", "ReproServer", "create_server"]
