"""Content-addressed work state: per-item ``queue/`` files, ``done/``
markers and ``sweeps/`` records.

What per-item state guarantees: a worker drain that costs O(new work)
however long the directory's history, completions that cannot erase
each other's attribution, and publishers (serve, ``--jobs N``,
``--publish``) that only ever add work.
"""

import multiprocessing

from repro import api
from repro.scenarios import ResultCache, SweepManifest, run_worker
from repro.scenarios import scheduler
from repro.scenarios.scheduler import WorkItem, WorkQueue
from repro.serve.jobs import JobStore

CASE = "taylor-green"
SMALL = {"shape": (8, 8, 4)}
PAYLOAD = {
    "case": CASE,
    "analyze": True,
    "metrics": {"steps_run": 3},
    "series": {"step": [0.0, 3.0]},
    "checks": {"ok": True},
}


def finished_history(root, count):
    """``count`` items that earlier drains finished: an item, an entry
    and a marker each."""
    cache = ResultCache(root)
    items = [
        WorkItem(
            index=i,
            overrides={**SMALL, "tau": 0.6},
            fingerprint=f"{i:064x}",
            case=CASE,
            cost=1.0,
        )
        for i in range(count)
    ]
    WorkQueue.append(root, items)
    for item in items:
        cache.put(item.fingerprint, PAYLOAD)
        cache.mark_done(item.fingerprint, "earlier")
    return {item.fingerprint for item in items}


def new_item(root, tau=0.71):
    request = api.case_request(CASE, steps=3, overrides={**SMALL, "tau": tau})
    WorkQueue.append(
        root,
        [
            WorkItem(
                index=0,
                overrides=request.overrides,
                fingerprint=request.fingerprint,
                case=request.case,
                cost=1.0,
            )
        ],
    )
    return request.fingerprint


class TestDrainCost:
    def test_drain_touches_only_new_work_whatever_the_history(
        self, tmp_path, monkeypatch
    ):
        """K finished items plus one new one: a drain makes the same
        number of cache probes for K = 10 and K = 200 (at most 3), and
        reads no finished item's entry or work item."""
        dirs = {}
        for count in (10, 200):
            root = tmp_path / f"k{count}"
            dirs[count] = (root, finished_history(root, count), new_item(root))

        probed: list[str] = []
        items_read: list[str] = []
        lookup, get = ResultCache.lookup, ResultCache.get
        read_item = scheduler._read_item

        def counted_lookup(self, fingerprint):
            probed.append(fingerprint)
            return lookup(self, fingerprint)

        def counted_get(self, fingerprint):
            probed.append(fingerprint)
            return get(self, fingerprint)

        def counted_read(path):
            items_read.append(path.stem)
            return read_item(path)

        monkeypatch.setattr(ResultCache, "lookup", counted_lookup)
        monkeypatch.setattr(ResultCache, "get", counted_get)
        monkeypatch.setattr(scheduler, "_read_item", counted_read)
        probes = {}
        for count, (root, finished, fresh) in dirs.items():
            probed.clear()
            items_read.clear()
            report = run_worker(root, worker_id="w")
            assert report.completed == [fresh]
            assert report.already_cached == count
            assert set(probed) == {fresh}
            assert not finished & set(items_read)
            probes[count] = len(probed)
        assert probes[10] == probes[200] <= 3

    def test_adopted_and_run_items_are_not_probed_again(self, tmp_path):
        """An entry written without a marker (run_case) is probed once,
        adopted with a marker, and skipped by every later pass."""
        fresh = new_item(tmp_path, tau=0.72)
        orphan = new_item(tmp_path, tau=0.73)
        api.run_case(
            CASE, steps=3, overrides={**SMALL, "tau": 0.73}, cache_dir=tmp_path
        )
        cache = ResultCache(tmp_path)
        assert cache.done() == set()
        first = run_worker(tmp_path, worker_id="w1")
        assert first.completed == [fresh]
        assert first.already_cached == 1
        assert cache.committer(orphan) == "w1"  # adopted
        assert cache.done() == {fresh, orphan}


def _commit(root, fingerprint, worker, barrier, results):
    cache = ResultCache(root)
    cache.put(fingerprint, PAYLOAD)
    manifest = SweepManifest.load(root)
    barrier.wait(timeout=60)
    manifest.record_completion(fingerprint, worker=worker)
    results.put((worker, cache.committer(fingerprint)))


def _mark(root, worker, barrier, results):
    barrier.wait(timeout=60)
    results.put((worker, ResultCache(root).mark_done("f" * 64, worker)))


def _start_all(target, args_of, count):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(count)
    results = ctx.Queue()
    processes = [
        ctx.Process(target=target, args=(*args_of(i), barrier, results))
        for i in range(count)
    ]
    for process in processes:
        process.start()
    outcomes = [results.get(timeout=60) for _ in processes]
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    return outcomes


class TestAttribution:
    def test_concurrent_completions_keep_every_attribution(self, tmp_path):
        """8 processes commit distinct variants of one sweep at once:
        8 markers, each naming its committer."""
        fingerprints = [f"{i:064x}" for i in range(8)]
        SweepManifest.create(tmp_path, CASE, ["tau"], fingerprints)
        _start_all(
            _commit,
            lambda i: (str(tmp_path), fingerprints[i], f"w{i}"),
            len(fingerprints),
        )
        cache = ResultCache(tmp_path)
        assert cache.done() == set(fingerprints)
        assert [cache.committer(fp) for fp in fingerprints] == [
            f"w{i}" for i in range(8)
        ]
        manifest = SweepManifest.load(tmp_path)
        assert manifest.complete
        assert manifest.workers == {fp: f"w{i}" for i, fp in enumerate(fingerprints)}

    def test_racing_commits_of_one_variant_keep_the_first(self, tmp_path):
        outcomes = dict(
            _start_all(_mark, lambda i: (str(tmp_path), f"w{i}"), 8)
        )
        winners = [worker for worker, created in outcomes.items() if created]
        assert len(winners) == 1
        assert ResultCache(tmp_path).committer("f" * 64) == winners[0]


class TestSharedDirectory:
    def test_jobs2_sweep_over_a_live_serve_directory_loses_no_job(self, tmp_path):
        """A --jobs 2 sweep publishes into a directory holding a queued
        serve job: it only adds work, so the job is never lost and the
        next drain finishes it."""
        store = JobStore(tmp_path)
        record, payload = store.submit_case(
            case=CASE, overrides={"shape": [10, 10, 4], "tau": 0.7}, steps=5
        )
        assert payload is None
        assert store.status_payload(record)["status"] == "queued"

        result = api.run_sweep(
            CASE, {"tau": [0.61, 0.62, 0.63]}, steps=3, jobs=2, cache_dir=tmp_path
        )
        assert result.runs_executed == 3
        assert store.status_payload(record)["status"] != "lost"
        run_worker(tmp_path)
        status = store.status_payload(record)
        assert status["status"] == "done"
        kind, body = store.result_response(record)
        assert kind == "case" and body["case"] == CASE

    def test_publish_adds_to_served_work(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit_case(
            case=CASE, overrides={"shape": [10, 10, 4], "tau": 0.7}, steps=5
        )
        plan, _ = api.publish_sweep(
            CASE, {"tau": [0.61, 0.62]}, steps=3, cache_dir=tmp_path
        )
        assert WorkQueue.listing(tmp_path) == {
            *record.fingerprints, *plan.fingerprints
        }

    def test_status_counts_listings_across_sweeps_and_serve(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit_case(
            case=CASE, overrides={"shape": [10, 10, 4], "tau": 0.7}, steps=5
        )
        api.run_sweep(CASE, {"tau": [0.61, 0.62]}, steps=3, cache_dir=tmp_path)
        status = api.sweep_status(tmp_path)
        assert (status.total, status.completed, status.published) == (3, 2, True)
        assert status.case == CASE and status.parameters == ("tau",)
        run_worker(tmp_path, worker_id="w1")
        status = api.sweep_status(tmp_path)
        assert status.complete
        assert status.workers == {"w1": 1}  # inline runs attribute no worker
        assert store.queue_depth() == 0


def test_an_entry_of_the_other_analyze_mode_is_rerun(tmp_path):
    """One fingerprint, entries of both modes in turn: whoever reads the
    other mode's entry unmarks it, so the item's drain runs it again."""
    fresh = new_item(tmp_path, tau=0.74)
    run_worker(tmp_path, worker_id="w1")
    api.run_case(
        CASE, steps=3, overrides={**SMALL, "tau": 0.74}, analyze=False,
        cache_dir=tmp_path,
    )
    cache = ResultCache(tmp_path)
    assert fresh not in cache.done()
    again = run_worker(tmp_path, worker_id="w2")
    assert again.completed == [fresh]
    assert cache.get(fresh)["analyze"] is True
