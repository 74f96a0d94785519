"""Claim-file primitives: atomicity, ownership, stale breaking."""

import json

from repro.core.io import (
    ClaimRecord,
    break_claim,
    read_claim,
    refresh_claim,
    release_claim,
    write_claim,
)


def record(owner="w1", resource="fp", expires=100.0):
    return ClaimRecord(
        owner=owner,
        resource=resource,
        host="testhost",
        pid=1234,
        acquired_at=50.0,
        expires_at=expires,
    )


class TestWriteClaim:
    def test_first_writer_wins(self, tmp_path):
        path = tmp_path / "v.lease"
        assert write_claim(path, record(owner="a"))
        assert not write_claim(path, record(owner="b"))
        assert read_claim(path).owner == "a"

    def test_roundtrip_preserves_fields(self, tmp_path):
        path = tmp_path / "v.lease"
        original = record()
        write_claim(path, original)
        assert read_claim(path) == original


class TestReadClaim:
    def test_missing_file(self, tmp_path):
        assert read_claim(tmp_path / "absent.lease") is None

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "v.lease"
        path.write_text("{torn write")
        assert read_claim(path) is None

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "v.lease"
        path.write_text(json.dumps({"owner": "a"}))  # missing fields
        assert read_claim(path) is None


class TestRefreshClaim:
    def test_replaces_atomically(self, tmp_path):
        path = tmp_path / "v.lease"
        write_claim(path, record(expires=100.0))
        refresh_claim(path, record(expires=200.0))
        assert read_claim(path).expires_at == 200.0
        # no temp debris left behind
        assert list(tmp_path.iterdir()) == [path]


class TestReleaseClaim:
    def test_owner_releases(self, tmp_path):
        path = tmp_path / "v.lease"
        write_claim(path, record(owner="a"))
        assert release_claim(path, "a")
        assert not path.exists()

    def test_non_owner_cannot_release(self, tmp_path):
        path = tmp_path / "v.lease"
        write_claim(path, record(owner="a"))
        assert not release_claim(path, "b")
        assert path.exists()

    def test_release_missing_is_noop(self, tmp_path):
        assert not release_claim(tmp_path / "absent.lease", "a")


class TestBreakClaim:
    def test_exactly_one_breaker_wins(self, tmp_path):
        path = tmp_path / "v.lease"
        stale = record()
        write_claim(path, stale)
        assert break_claim(path, stale)
        assert not break_claim(path, stale)  # already gone
        assert read_claim(path) is None

    def test_breaker_then_writer_recovers_the_resource(self, tmp_path):
        path = tmp_path / "v.lease"
        dead = record(owner="dead")
        write_claim(path, dead)
        assert break_claim(path, dead)
        assert write_claim(path, record(owner="rescuer"))
        assert read_claim(path).owner == "rescuer"
