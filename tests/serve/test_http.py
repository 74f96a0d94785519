"""Endpoint contract for ``repro serve``.

The load-bearing guarantees: a warm ``POST /v1/case`` answers from the
cache with *zero* simulation steps and a body byte-identical to
``repro case --json``; cold work drains through the ordinary
sweep-worker machinery and polls queued -> running -> done; malformed
requests come back as structured 400 envelopes, never tracebacks.
"""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.__main__ import main as repro_main
from repro.scenarios.scheduler import LeaseBoard
from repro.serve import create_server

CASE = "taylor-green"
SET_ARGS = ["--set", "shape=12,12,6", "--steps", "5"]
BODY = {"case": CASE, "steps": 5, "overrides": {"shape": [12, 12, 6]}}


@pytest.fixture()
def server(tmp_path):
    srv = create_server(tmp_path, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def request(server, path, body=None):
    """(status, raw bytes, decoded envelope) for one request."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        server.url + path, data=data, method="POST" if body else "GET"
    )
    try:
        with urllib.request.urlopen(req) as resp:
            raw = resp.read()
            return resp.status, raw, json.loads(raw)
    except urllib.error.HTTPError as err:
        raw = err.read()
        return err.code, raw, json.loads(raw)


class TestWarmCase:
    def test_body_byte_identical_to_cli_json(self, server, tmp_path, capsys):
        assert (
            repro_main(
                ["case", CASE, *SET_ARGS, "--json", "--cache-dir", str(tmp_path)]
            )
            == 0
        )
        cli_bytes = capsys.readouterr().out.encode()
        status, raw, envelope = request(server, "/v1/case", BODY)
        assert status == 200
        assert raw == cli_bytes
        assert envelope["schema"] == 1 and envelope["kind"] == "case"

    def test_warm_hit_executes_zero_steps(self, server, tmp_path, monkeypatch):
        api.run_case(
            CASE,
            steps=5,
            overrides=api.decode_overrides(BODY["overrides"]),
            cache_dir=tmp_path,
        )
        from repro.scenarios.runner import CaseRunner

        def boom(self, **kwargs):
            raise AssertionError("warm POST /v1/case must not simulate")

        monkeypatch.setattr(CaseRunner, "run", boom)
        status, _, envelope = request(server, "/v1/case", BODY)
        assert status == 200
        assert envelope["data"]["case"] == CASE


    def test_warm_auto_post_matches_planned_body(self, server, tmp_path):
        api.run_case(
            CASE,
            steps=5,
            overrides=api.decode_overrides(BODY["overrides"]),
            kernel="planned",
            cache_dir=tmp_path,
        )
        bodies = {}
        for kernel in ("planned", "auto"):
            status, raw, _ = request(
                server, "/v1/case", {**BODY, "kernel": kernel}
            )
            assert status == 200
            bodies[kernel] = raw
        assert bodies["auto"] == bodies["planned"]


class TestConcurrentWarmPosts:
    def test_identical_warm_posts_all_answer_200(self, server, tmp_path):
        """8 clients x 25 identical warm POSTs: every request saves the
        same job record, each through its own temp file, so none loses
        its rename to a peer and answers 500."""
        api.run_case(
            CASE,
            steps=5,
            overrides=api.decode_overrides(BODY["overrides"]),
            cache_dir=tmp_path,
        )
        statuses: list[int] = []

        def client():
            for _ in range(25):
                statuses.append(request(server, "/v1/case", BODY)[0])

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == [200] * 200
        assert not list((tmp_path / "jobs").glob("*.tmp"))


class TestColdLifecycle:
    def test_queued_to_done_through_a_worker(self, server, tmp_path):
        status, _, envelope = request(server, "/v1/case", BODY)
        assert status == 202
        job = envelope["data"]
        assert job["status"] == "queued"
        job_id = job["id"]

        status, _, err = request(server, f"/v1/jobs/{job_id}/result")
        assert status == 409
        assert "not complete" in err["data"]["error"]["message"]

        # a manually held lease is a deterministic "running" signal
        board = LeaseBoard(tmp_path, owner="peer", ttl=60.0)
        fingerprint = list(job["fingerprints"])[0]
        assert board.acquire(fingerprint)
        status, _, envelope = request(server, f"/v1/jobs/{job_id}")
        assert envelope["data"]["status"] == "running"
        board.release(fingerprint)

        report = api.run_worker(tmp_path, wait=True)
        assert len(report.completed) == 1

        status, _, envelope = request(server, f"/v1/jobs/{job_id}")
        assert status == 200
        assert envelope["data"]["status"] == "done"
        assert envelope["data"]["result"] == f"/v1/jobs/{job_id}/result"

        status, raw, envelope = request(server, f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert envelope["kind"] == "case"
        # ...and now the same POST is warm and byte-identical
        status, warm_raw, _ = request(server, "/v1/case", BODY)
        assert status == 200
        assert warm_raw == raw

    def test_sweep_submission_and_assembly(self, server, tmp_path):
        body = {"case": CASE, "steps": 5, "grid": {"tau": [0.7, 0.8]}}
        status, _, envelope = request(server, "/v1/sweep", body)
        assert status == 202
        job_id = envelope["data"]["id"]
        assert envelope["data"]["variants"]["queued"] == 2

        api.run_worker(tmp_path, wait=True)

        status, _, envelope = request(server, f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert envelope["kind"] == "sweep"
        assert envelope["data"]["passed"] is True
        assert len(envelope["data"]["results"]) == 2

        # resubmission is now fully warm: a 200 with the same payload
        status, _, warm = request(server, "/v1/sweep", body)
        assert status == 200
        assert warm["data"] == envelope["data"]


class TestValidation:
    def assert_error(self, triple, status, fragment):
        code, _, envelope = triple
        assert code == status
        assert envelope["kind"] == "error"
        assert envelope["data"]["status"] == status
        error = envelope["data"]["error"]
        assert isinstance(error["type"], str) and error["type"]
        assert fragment in error["message"]

    def test_malformed_json_is_a_structured_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/case", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        envelope = json.loads(err.value.read())
        assert err.value.code == 400
        assert envelope["kind"] == "error"
        assert "not valid JSON" in envelope["data"]["error"]["message"]

    def test_unknown_field(self, server):
        self.assert_error(
            request(server, "/v1/case", {"case": CASE, "step": 5}),
            400,
            "unknown field(s): step",
        )

    def test_missing_case(self, server):
        self.assert_error(
            request(server, "/v1/case", {"overrides": {}}), 400, "'case'"
        )

    def test_unknown_case(self, server):
        self.assert_error(
            request(server, "/v1/case", {"case": "nope"}), 400, "unknown case"
        )

    @pytest.mark.parametrize("kernel", ["fused-gather", "sparse-legacy"])
    def test_retired_kernel_is_a_structured_400(self, server, kernel):
        self.assert_error(
            request(server, "/v1/case", {**BODY, "kernel": kernel}),
            400,
            "available: naive, planned, roll, sparse-planned",
        )

    def test_kernel_auto_is_the_planned_job(self, server):
        ids = {}
        for kernel in ("planned", "auto"):
            status, _, envelope = request(
                server, "/v1/case", {**BODY, "kernel": kernel}
            )
            assert status == 202
            ids[kernel] = envelope["data"]["id"]
        assert ids["auto"] == ids["planned"]

    def test_sweep_needs_a_grid_of_lists(self, server):
        self.assert_error(
            request(server, "/v1/sweep", {"case": CASE}), 400, "'grid'"
        )
        self.assert_error(
            request(server, "/v1/sweep", {"case": CASE, "grid": {"tau": 0.7}}),
            400,
            "non-empty list",
        )

    def test_unknown_routes_and_jobs(self, server):
        self.assert_error(request(server, "/v1/nope"), 404, "no route")
        self.assert_error(
            request(server, "/v1/jobs/feedbeef00"), 404, "unknown job"
        )
        # traversal never reaches the job store: the segment regex
        # refuses the slash, so it is just an unrouted path
        self.assert_error(
            request(server, "/v1/jobs/../queue"), 404, "no route"
        )


class TestReadOnlyEndpoints:
    def test_health_and_cases(self, server, tmp_path):
        status, _, envelope = request(server, "/v1/health")
        assert status == 200
        assert envelope["data"]["ok"] is True
        assert envelope["data"]["root"] == str(tmp_path)
        status, _, envelope = request(server, "/v1/cases")
        names = [c["name"] for c in envelope["data"]["cases"]]
        assert CASE in names

    def test_kept_alive_connection_answers_without_a_nagle_stall(self, server):
        """Headers and body leave in two sends; with Nagle's algorithm on,
        every response on a reused connection stalled ~40 ms waiting for
        the client's delayed ACK."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            latencies = []
            for _ in range(11):
                start = time.perf_counter()
                conn.request("GET", "/v1/health")
                resp = conn.getresponse()
                body = resp.read()
                latencies.append(time.perf_counter() - start)
                assert resp.status == 200
                assert json.loads(body)["data"]["ok"] is True
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.02, latencies

    def test_fleet_byte_identical_to_status_cli(
        self, server, tmp_path, capsys
    ):
        api.run_sweep(CASE, {"tau": [0.7]}, steps=5, cache_dir=tmp_path)
        assert (
            repro_main(["sweep-status", "--cache-dir", str(tmp_path), "--json"])
            == 0
        )
        cli_bytes = capsys.readouterr().out.encode()
        status, raw, envelope = request(server, "/v1/fleet")
        assert status == 200
        assert raw == cli_bytes
        assert envelope["kind"] == "fleet"


def request_with_headers(server, path):
    """(status, headers, decoded envelope) for one GET."""
    req = urllib.request.Request(server.url + path)
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.headers, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, err.headers, json.loads(err.read())


class TestHardening:
    """Degradation contract: structured refusals, never hung threads."""

    def test_error_bodies_have_a_stable_nested_schema(self, server):
        status, _, envelope = request(server, "/v1/nope")
        assert status == 404
        assert envelope["kind"] == "error"
        assert envelope["data"] == {
            "status": 404,
            "error": {
                "type": "not-found",
                "message": "no route for GET /v1/nope",
            },
        }

    def test_draining_server_refuses_with_503_and_retry_after(self, server):
        server.draining = True
        try:
            status, headers, envelope = request_with_headers(
                server, "/v1/health"
            )
        finally:
            server.draining = False
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert envelope["data"]["error"]["type"] == "overloaded"
        assert "draining" in envelope["data"]["error"]["message"]
        # back in service once draining clears
        status, _, _ = request(server, "/v1/health")
        assert status == 200

    def test_overloaded_server_sheds_load(self, tmp_path):
        from repro.serve import create_server

        srv = create_server(tmp_path, port=0, max_inflight=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            status, headers, envelope = request_with_headers(srv, "/v1/health")
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert "0 request(s) in flight" in envelope["data"]["error"]["message"]

    def test_unsupported_method_is_json_not_html(self, server):
        req = urllib.request.Request(server.url + "/v1/health", method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 501
        envelope = json.loads(err.value.read())
        assert envelope["kind"] == "error"
        assert envelope["data"]["error"]["type"] == "http"

    def test_drain_waits_for_idle(self, server):
        assert server.try_begin_request() is None
        done = []

        def finish():
            time.sleep(0.1)
            server.end_request()
            done.append(True)

        threading.Thread(target=finish).start()
        assert server.drain(timeout=5.0)
        assert done == [True]
        server.draining = False

    def test_bad_limits_rejected(self, tmp_path):
        from repro.errors import ReproError
        from repro.serve import create_server

        with pytest.raises(ReproError, match="max_inflight"):
            create_server(tmp_path, port=0, max_inflight=-1)
        with pytest.raises(ReproError, match="request_timeout"):
            create_server(tmp_path, port=0, request_timeout=0)
