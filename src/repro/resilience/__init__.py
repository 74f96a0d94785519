"""Fault tolerance for the sweep fleet.

Two halves:

* :mod:`repro.resilience.ledger` — the durable **failure ledger**
  (``failures.json`` beside ``queue/``): per-fingerprint attempt
  records and poison-variant quarantine, shared by every worker via the
  same claim-file primitives that back leases.
* :mod:`repro.resilience.faults` — **deterministic fault injection**
  (``$REPRO_FAULT_PLAN``): crashes, injected exceptions, slow steps,
  torn cache writes and lost leases fired at fixed points so chaos runs
  are exactly reproducible.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "faults": [
            "FAULT_PLAN_ENV",
            "FaultInjector",
            "FaultPlan",
            "FaultSpec",
            "InjectedFault",
        ],
        "ledger": [
            "DEFAULT_MAX_ATTEMPTS",
            "FAILURES_FILENAME",
            "FailureAttempt",
            "FailureLedger",
            "FailureRecord",
        ],
    },
)

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "FAILURES_FILENAME",
    "FAULT_PLAN_ENV",
    "FailureAttempt",
    "FailureLedger",
    "FailureRecord",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
]
