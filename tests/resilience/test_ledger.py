"""Failure ledger units: attempts, quarantine, clearing, claim locks."""

import json
import threading
import time

import pytest

from repro.core.io import claim_lock, read_claim, write_claim, ClaimRecord
from repro.resilience import (
    DEFAULT_MAX_ATTEMPTS,
    FAILURES_FILENAME,
    FailureLedger,
    FailureRecord,
)
from repro.resilience.ledger import describe_exception


def boom(message="kaboom"):
    try:
        raise RuntimeError(message)
    except RuntimeError as exc:
        return exc


class TestDescribeException:
    def test_class_message_and_digest(self):
        name, message, digest = describe_exception(boom())
        assert name == "RuntimeError"
        assert message == "kaboom"
        assert len(digest) == 16
        int(digest, 16)  # hex

    def test_same_failure_mode_same_digest(self):
        a = describe_exception(boom())
        b = describe_exception(boom())
        # same raise site, same message -> same digest
        assert a[2] == b[2]

    def test_long_messages_truncated(self):
        _, message, _ = describe_exception(boom("x" * 2000))
        assert len(message) == 500
        assert message.endswith("...")


class TestFailureLedger:
    def test_starts_empty_and_touches_nothing(self, tmp_path):
        ledger = FailureLedger(tmp_path)
        assert ledger.load() == {}
        assert ledger.attempt_count("fp") == 0
        assert not ledger.is_quarantined("fp")
        assert not (tmp_path / FAILURES_FILENAME).exists()

    def test_max_attempts_validated(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            FailureLedger(tmp_path, max_attempts=0)
        assert FailureLedger(tmp_path).max_attempts == DEFAULT_MAX_ATTEMPTS

    def test_attempts_accumulate_then_quarantine(self, tmp_path):
        ledger = FailureLedger(tmp_path, max_attempts=3)
        for expected in (1, 2):
            record = ledger.record_failure("fp", boom(), worker="w1")
            assert record.attempt_count == expected
            assert not record.quarantined
        record = ledger.record_failure("fp", boom(), worker="w2")
        assert record.attempt_count == 3
        assert record.quarantined
        assert ledger.is_quarantined("fp")
        assert set(ledger.quarantined()) == {"fp"}
        # attempt metadata is durable
        reread = FailureLedger(tmp_path).record("fp")
        assert [a.worker for a in reread.attempts] == ["w1", "w1", "w2"]
        assert reread.last.exception == "RuntimeError"

    def test_success_clears_the_record(self, tmp_path):
        ledger = FailureLedger(tmp_path)
        assert not ledger.clear("fp")  # nothing on file yet
        ledger.record_failure("fp", boom())
        ledger.record_failure("other", boom())
        assert ledger.clear("fp")
        assert not ledger.clear("fp")  # already gone
        assert set(ledger.load()) == {"other"}

    def test_corrupt_ledger_reads_as_empty(self, tmp_path):
        path = tmp_path / FAILURES_FILENAME
        for garbage in ("{torn", "[]", json.dumps({"failures": "nope"})):
            path.write_text(garbage)
            assert FailureLedger(tmp_path).load() == {}

    def test_writes_are_atomic_and_sorted(self, tmp_path):
        ledger = FailureLedger(tmp_path)
        ledger.record_failure("bbb", boom())
        ledger.record_failure("aaa", boom())
        raw = json.loads((tmp_path / FAILURES_FILENAME).read_text())
        assert list(raw["failures"]) == ["aaa", "bbb"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_recorders_lose_no_attempts(self, tmp_path):
        ledger = FailureLedger(tmp_path, max_attempts=1000)
        threads = [
            threading.Thread(
                target=lambda i=i: ledger.record_failure(
                    "fp", boom(), worker=f"w{i}"
                )
            )
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.attempt_count("fp") == 8


class TestRetryBackoff:
    def test_backoff_doubles_and_caps(self):
        record = FailureRecord("fp")
        record.attempts.append(describe_attempt(100.0))
        assert record.next_retry_at(0.5) == 100.5
        record.attempts.append(describe_attempt(101.0))
        assert record.next_retry_at(0.5) == 102.0  # 0.5 * 2**1
        record.attempts = [describe_attempt(100.0)] * 20
        assert record.next_retry_at(0.5) == 160.0  # capped at 60s

    def test_zero_backoff_always_due(self):
        record = FailureRecord("fp")
        record.attempts.append(describe_attempt(time.time() + 1000))
        assert record.next_retry_at(0.0) == 0.0
        assert FailureRecord("fp").next_retry_at(5.0) == 0.0  # no attempts


def describe_attempt(at):
    from repro.resilience import FailureAttempt

    return FailureAttempt(
        worker="w", host="h", pid=1, exception="E", message="m",
        digest="d", at=at,
    )


class TestClaimLock:
    def test_serialises_critical_sections(self, tmp_path):
        lock = tmp_path / "x.lock"
        order = []

        def hold(tag):
            with claim_lock(lock, timeout=5.0):
                order.append(("in", tag))
                time.sleep(0.05)
                order.append(("out", tag))

        threads = [threading.Thread(target=hold, args=(t,)) for t in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # strictly nested: every "in" is followed by its own "out"
        assert [kind for kind, _ in order] == ["in", "out", "in", "out"]
        assert not lock.exists()  # released

    def test_breaks_stale_claims_of_dead_owners(self, tmp_path):
        lock = tmp_path / "x.lock"
        dead = ClaimRecord(
            owner="gone", resource=str(lock), host="nowhere", pid=1,
            acquired_at=time.time() - 100, expires_at=time.time() - 50,
        )
        assert write_claim(lock, dead)
        with claim_lock(lock, timeout=5.0):
            holder = read_claim(lock)
            assert holder is not None and holder.owner != "gone"

    def test_a_lock_retaken_during_our_read_is_not_broken(
        self, tmp_path, monkeypatch
    ):
        """Our create fails; the holder releases and a peer takes the
        lock before we look.  Finding the file gone, we must retry, not
        break whatever claim sits there next: the peer keeps its lock
        and we time out."""
        import os
        import socket

        from repro.core import io

        lock = tmp_path / "x.lock"
        now = time.time()

        def live(owner):
            return ClaimRecord(
                owner=owner, resource=str(lock), host=socket.gethostname(),
                pid=os.getpid(), acquired_at=now, expires_at=now + 3600,
            )

        assert write_claim(lock, live("first"))
        reads = []

        def read_during_handover(path):
            if not reads:
                lock.unlink()  # "first" releases ...
                reads.append(read_claim(path))
                assert write_claim(lock, live("peer"))  # ... "peer" takes it
                return reads[0]
            return read_claim(path)

        monkeypatch.setattr(io, "read_claim", read_during_handover)
        with pytest.raises(TimeoutError, match="held by peer"):
            with claim_lock(lock, timeout=0.1, poll=0.02):
                pass
        assert reads == [None]
        assert read_claim(lock).owner == "peer"

    def test_second_breaker_of_one_stale_claim_leaves_the_lock_held(
        self, tmp_path, monkeypatch
    ):
        """Two contenders read the same stale claim.  The first breaks
        it and takes the lock before the second acts; the second's
        break finds a claim other than the one it judged, puts it back,
        and keeps waiting: the first keeps its lock."""
        import os
        import socket

        from repro.core import io

        lock = tmp_path / "x.lock"
        now = time.time()
        stale = ClaimRecord(
            owner="gone", resource=lock.name, host="nowhere", pid=1,
            acquired_at=now - 100, expires_at=now - 50,
        )
        first = ClaimRecord(
            owner="first", resource=lock.name, host=socket.gethostname(),
            pid=os.getpid(), acquired_at=now, expires_at=now + 3600,
        )
        assert write_claim(lock, stale)
        real_read = io.read_claim
        reads = []

        def stale_snapshot(path):
            if path == lock and not reads:
                reads.append(path)
                # "first" judged the same record stale, broke it and
                # took the lock between our read and our break.
                lock.unlink()
                assert write_claim(lock, first)
                return stale
            return real_read(path)

        monkeypatch.setattr(io, "read_claim", stale_snapshot)
        with pytest.raises(TimeoutError, match="held by first"):
            with claim_lock(lock, timeout=0.1, poll=0.02):
                pass
        assert real_read(lock) == first
        assert [p.name for p in tmp_path.iterdir()] == ["x.lock"]

    def test_unreadable_claim_is_broken_once_ttl_old(self, tmp_path):
        import os

        lock = tmp_path / "x.lock"
        lock.write_text("")  # a torn claim from an older release
        with pytest.raises(TimeoutError, match="unreadable claim"):
            with claim_lock(lock, ttl=30.0, timeout=0.1, poll=0.02):
                pass
        old = time.time() - 60
        os.utime(lock, (old, old))
        with claim_lock(lock, ttl=30.0, timeout=5.0):
            assert read_claim(lock) is not None

    def test_timeout_raises(self, tmp_path):
        lock = tmp_path / "x.lock"
        import os
        import socket

        live = ClaimRecord(
            owner="live", resource=str(lock), host=socket.gethostname(),
            pid=os.getpid(), acquired_at=time.time(),
            expires_at=time.time() + 3600,
        )
        assert write_claim(lock, live)
        with pytest.raises(TimeoutError):
            with claim_lock(lock, timeout=0.1, poll=0.02):
                pass
