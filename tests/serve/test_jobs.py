"""JobStore: disk-backed records, derived status, idempotent queueing."""

import pytest

from repro import api
from repro.scenarios.scheduler import LeaseBoard, WorkQueue
from repro.serve.jobs import JobStore

CASE = "taylor-green"
SMALL = {"shape": [10, 10, 4]}


def submit_small(store, tau=0.7):
    return store.submit_case(
        case=CASE, overrides={**SMALL, "tau": tau}, steps=5
    )


class TestSubmitCase:
    def test_cold_submission_enqueues_and_persists(self, tmp_path):
        store = JobStore(tmp_path)
        record, payload = submit_small(store)
        assert payload is None
        assert store.get(record.id) == record
        queue = WorkQueue.load(tmp_path)
        assert [i.fingerprint for i in queue.items] == record.fingerprints
        assert store.status_payload(record)["status"] == "queued"

    def test_resubmission_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        first, _ = submit_small(store)
        again, _ = submit_small(store)
        assert first.id == again.id
        assert len(WorkQueue.load(tmp_path).items) == 1

    def test_resubmission_leaves_the_record_bytes_unchanged(self, tmp_path):
        """A job record is created once: later POSTs of the same request,
        warm or cold, neither rewrite it nor move ``created_at``."""
        store = JobStore(tmp_path)
        first, _ = submit_small(store)
        path = tmp_path / "jobs" / f"{first.id}.json"
        before = path.read_bytes()
        submit_small(store)
        assert path.read_bytes() == before
        api.run_worker(tmp_path)
        again, payload = submit_small(store)  # now a warm hit
        assert payload is not None
        assert path.read_bytes() == before
        assert again.id == first.id

    def test_record_that_does_not_load_is_rewritten(self, tmp_path):
        store = JobStore(tmp_path)
        first, _ = submit_small(store)
        path = tmp_path / "jobs" / f"{first.id}.json"
        path.write_text("{torn")
        assert store.get(first.id) is None
        submit_small(store)
        assert store.get(first.id).fingerprints == first.fingerprints

    def test_warm_submission_answers_without_queueing(self, tmp_path):
        outcome = api.run_case(
            CASE,
            steps=5,
            overrides=api.decode_overrides({**SMALL, "tau": 0.7}),
            cache_dir=tmp_path,
        )
        store = JobStore(tmp_path)
        record, payload = submit_small(store)
        assert payload == outcome.payload
        assert store.status_payload(record)["status"] == "done"
        with pytest.raises(Exception):
            WorkQueue.load(tmp_path)  # nothing was published

    def test_distinct_cases_share_one_queue(self, tmp_path):
        store = JobStore(tmp_path)
        a, _ = submit_small(store, tau=0.7)
        b, _ = submit_small(store, tau=0.8)
        queue = WorkQueue.load(tmp_path)
        fingerprints = [i.fingerprint for i in queue.items]
        assert a.fingerprints[0] in fingerprints
        assert b.fingerprints[0] in fingerprints


class TestSubmitSweep:
    def test_cold_sweep_enqueues_all_variants(self, tmp_path):
        store = JobStore(tmp_path)
        record, result = store.submit_sweep(
            case=CASE, grid={"tau": [0.7, 0.8]}, steps=5
        )
        assert result is None
        assert len(record.fingerprints) == 2
        assert len(WorkQueue.load(tmp_path).items) == 2

    def test_partially_warm_sweep_enqueues_the_cold_rest(self, tmp_path):
        api.run_case(
            CASE, steps=5, overrides={"tau": 0.7}, cache_dir=tmp_path
        )
        store = JobStore(tmp_path)
        record, result = store.submit_sweep(
            case=CASE, grid={"tau": [0.7, 0.8]}, steps=5
        )
        assert result is None
        assert len(WorkQueue.load(tmp_path).items) == 1
        states = store.variant_states(record)
        assert sorted(states.values()) == ["done", "queued"]

    def test_fully_warm_sweep_answers_immediately(self, tmp_path):
        api.run_sweep(CASE, {"tau": [0.7, 0.8]}, steps=5, cache_dir=tmp_path)
        store = JobStore(tmp_path)
        record, result = store.submit_sweep(
            case=CASE, grid={"tau": [0.7, 0.8]}, steps=5
        )
        assert result is not None and result.passed
        assert store.status_payload(record)["status"] == "done"


class TestDerivedStatus:
    def test_running_state_follows_a_live_lease(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit_small(store)
        board = LeaseBoard(tmp_path, owner="peer", ttl=60.0)
        assert board.acquire(record.fingerprints[0])
        payload = store.status_payload(record)
        assert payload["status"] == "running"
        board.release(record.fingerprints[0])
        assert store.status_payload(record)["status"] == "queued"

    def test_done_after_worker_drains(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit_small(store)
        api.run_worker(tmp_path, wait=True)
        payload = store.status_payload(record)
        assert payload["status"] == "done"
        assert payload["result"] == f"/v1/jobs/{record.id}/result"
        kind, body = store.result_response(record)
        assert kind == "case" and body["case"] == CASE

    def test_result_response_in_flight_is_none(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit_small(store)
        assert store.result_response(record) is None

    def test_unknown_and_hostile_ids_are_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.get("feedbeef00") is None
        assert store.get("../queue") is None
        assert store.get("") is None

    def test_queue_depth_tracks_cold_items(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.queue_depth() == 0
        submit_small(store)
        assert store.queue_depth() == 1
        api.run_worker(tmp_path, wait=True)
        assert store.queue_depth() == 0


class TestQuarantinedVariants:
    def test_quarantine_surfaces_as_failed(self, tmp_path):
        from repro.resilience import FailureLedger

        store = JobStore(tmp_path)
        record, _ = submit_small(store)
        (fingerprint,) = record.fingerprints
        ledger = FailureLedger(tmp_path, max_attempts=1)
        try:
            raise RuntimeError("diverged")
        except RuntimeError as exc:
            ledger.record_failure(fingerprint, exc, worker="w1")

        states = store.variant_states(record)
        assert states[fingerprint] == "failed"
        payload = store.status_payload(record)
        assert payload["status"] == "failed"
        assert payload["variants"]["failed"] == 1
        assert payload["result"] is None

        # clearing the ledger entry makes the variant schedulable again
        ledger.clear(fingerprint)
        assert store.variant_states(record)[fingerprint] == "queued"
