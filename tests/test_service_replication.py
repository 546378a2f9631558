"""Leader/follower replication: convergence, prefix consistency, divergence."""

from __future__ import annotations

import json
import shutil
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ReplicationError, ServiceError
from repro.service import faults
from repro.service.artifacts import save_artifact
from repro.service.faults import FaultPlan, FaultRule
from repro.service.replication import (
    ReplicationCoordinator,
    ReplicationLog,
    state_fingerprint,
)
from repro.service.aserver import start_server_thread
from repro.service.server import TipService


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("repl") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


def _copy(source, tmp_path, name):
    dest = tmp_path / f"{name}.tipidx"
    shutil.copytree(source, dest)
    return dest


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _serve(service):
    handle = start_server_thread(service=service)
    return handle, handle.base_url


BATCHES = (
    {"insert": [[0, 20], [1, 21]]},
    {"insert": [[2, 22]], "delete": [[0, 20]]},
    {"insert": [[3, 23], [4, 24]]},
)


class TestReplicationLog:
    def test_append_assigns_monotone_offsets(self, tmp_path):
        log = ReplicationLog(tmp_path / "a.replog")
        for i in range(3):
            record = log.append({"artifact": "a", "insert": [], "delete": [],
                                 "previous_state": f"s{i}", "state": f"s{i + 1}"})
            assert record["offset"] == i + 1
        reopened = ReplicationLog(tmp_path / "a.replog")
        assert reopened.last_offset == 3
        assert reopened.base_state == "s0"
        assert [r["offset"] for r in reopened.records_from(2)] == [2, 3]

    def test_corrupt_line_is_fatal(self, tmp_path):
        path = tmp_path / "bad.replog"
        path.write_text('{"offset": 1, "artifact": "a", "insert": [], '
                        '"delete": [], "previous_state": "x", "state": "y"}\n'
                        "not json\n", encoding="utf-8")
        with pytest.raises(ReplicationError):
            ReplicationLog(path)

    def test_offset_gap_is_fatal(self, tmp_path):
        path = tmp_path / "gap.replog"
        lines = []
        for offset in (1, 3):
            lines.append(json.dumps({
                "offset": offset, "artifact": "a", "insert": [], "delete": [],
                "previous_state": "x", "state": "y"}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ReplicationError):
            ReplicationLog(path)

    def test_stale_log_rejected_at_leader_startup(self, source, tmp_path):
        artifact = _copy(source, tmp_path, "leader")
        log_path = tmp_path / "stale.replog"
        log = ReplicationLog(log_path)
        log.append({"artifact": "blocks", "insert": [], "delete": [],
                    "previous_state": "old", "state": "does-not-match"})
        service = TipService([artifact])
        with pytest.raises(ReplicationError):
            ReplicationCoordinator(service, role="leader", log_path=log_path)


class TestRoles:
    def test_follower_requires_leader_url(self, source, tmp_path):
        artifact = _copy(source, tmp_path, "f")
        with pytest.raises(ServiceError):
            ReplicationCoordinator(TipService([artifact]), role="follower")

    def test_unknown_role_rejected(self, source, tmp_path):
        artifact = _copy(source, tmp_path, "f")
        with pytest.raises(ServiceError):
            ReplicationCoordinator(TipService([artifact]), role="observer")

    def test_follower_rejects_writes(self, source, tmp_path):
        artifact = _copy(source, tmp_path, "f")
        service = TipService([artifact])
        ReplicationCoordinator(service, role="follower",
                               leader_url="http://127.0.0.1:1")
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/update", {}, dict(BATCHES[0]))
        assert excinfo.value.status == 409

    def test_leader_records_every_update(self, source, tmp_path):
        artifact = _copy(source, tmp_path, "leader")
        service = TipService([artifact])
        coordinator = ReplicationCoordinator(service, role="leader")
        for i, batch in enumerate(BATCHES, start=1):
            payload = service.handle("/update", {}, dict(batch))
            assert payload["replication"]["offset"] == i
        status = coordinator.status()
        assert status["offset"] == 3
        assert status["state"] == state_fingerprint(
            service.index_for(service.artifact_names[0]))


class TestPrefixConsistency:
    def test_follower_reads_are_an_applied_prefix(self, source, tmp_path):
        """After each applied record the follower equals that leader prefix."""
        leader_art = _copy(source, tmp_path, "leader")
        follower_art = _copy(source, tmp_path, "follower")
        leader = TipService([leader_art])
        coordinator = ReplicationCoordinator(leader, role="leader")
        leader_srv, leader_url = _serve(leader)
        name = leader.artifact_names[0]
        probe = np.arange(40)
        try:
            snapshots = [leader.index_for(name).theta_batch(probe).tolist()]
            for batch in BATCHES:
                leader.handle("/update", {}, dict(batch))
                snapshots.append(
                    leader.index_for(name).theta_batch(probe).tolist())
            records = coordinator.log_payload({})["records"]
            assert len(records) == len(BATCHES)

            follower = TipService([follower_art])
            fcoord = ReplicationCoordinator(
                follower, role="follower", leader_url=leader_url)
            for prefix, record in enumerate(records, start=1):
                result = fcoord.handle_push(record)
                assert result["applied"] and result["offset"] == prefix
                got = follower.index_for(name).theta_batch(probe).tolist()
                assert got == snapshots[prefix], f"prefix {prefix}"
            # Re-pushing an old record is an idempotent no-op, not a rewind.
            result = fcoord.handle_push(records[0])
            assert not result["applied"] and result["offset"] == len(records)
        finally:
            leader_srv.stop()

    def test_tampered_record_marks_divergence(self, source, tmp_path):
        leader_art = _copy(source, tmp_path, "leader")
        follower_art = _copy(source, tmp_path, "follower")
        leader = TipService([leader_art])
        coordinator = ReplicationCoordinator(leader, role="leader")
        leader_srv, leader_url = _serve(leader)
        try:
            leader.handle("/update", {}, dict(BATCHES[0]))
            record = dict(coordinator.log_payload({})["records"][0])
            record["state"] = "0" * 64  # claims a different post-state

            follower = TipService([follower_art])
            fcoord = ReplicationCoordinator(
                follower, role="follower", leader_url=leader_url)
            with pytest.raises(ReplicationError):
                fcoord.handle_push(record)
            assert fcoord.diverged is not None
            # A diverged follower acknowledges-but-ignores further pushes
            # rather than applying records it cannot verify...
            result = fcoord.handle_push(record)
            assert not result["applied"] and result["diverged"]
            # ...and the poll path recovers it automatically: one sync
            # re-bootstraps from a leader snapshot and lands at lag 0.
            synced = fcoord.sync_once()
            assert fcoord.diverged is None
            assert fcoord.resyncs == 1
            assert synced["lag"] == 0
            name = leader.artifact_names[0]
            probe = np.arange(40)
            assert (follower.index_for(name).theta_batch(probe).tolist()
                    == leader.index_for(name).theta_batch(probe).tolist())
        finally:
            leader_srv.stop()


class TestSnapshotRoute:
    def test_blocked_snapshot_leaves_other_connections_served(
            self, source, tmp_path):
        """A snapshot capture (which sleeps while an update holds the
        mutation seqlock odd) runs off the event loop."""
        leader = TipService([_copy(source, tmp_path, "leader")])
        coordinator = ReplicationCoordinator(leader, role="leader")
        entered, release = threading.Event(), threading.Event()
        capture = coordinator.snapshot_payload

        def blocked_capture():
            entered.set()
            release.wait(timeout=30)
            return capture()

        coordinator.snapshot_payload = blocked_capture
        handle, url = _serve(leader)
        answers = {}
        snapshot = threading.Thread(target=lambda: answers.update(
            snapshot=_get(f"{url}/replication/snapshot")))
        try:
            snapshot.start()
            assert entered.wait(timeout=10)
            with urllib.request.urlopen(f"{url}/healthz", timeout=5) as response:
                assert response.status == 200
            assert not release.is_set()
        finally:
            release.set()
            snapshot.join(timeout=30)
            handle.stop()
        assert not snapshot.is_alive()
        assert answers["snapshot"]["last_offset"] == 0
        assert answers["snapshot"]["files"]


class TestCrashRecovery:
    """Torn-tail truncation, WAL replay, and the killed-writer regression."""

    def _record(self, offset):
        return {"offset": offset, "artifact": "a", "insert": [], "delete": [],
                "previous_state": f"s{offset - 1}", "state": f"s{offset}"}

    def test_torn_partial_line_is_truncated(self, tmp_path):
        log = ReplicationLog(tmp_path / "torn.replog")
        log.append({"artifact": "a", "insert": [], "delete": [],
                    "previous_state": "s0", "state": "s1"})
        with open(log.path, "ab") as handle:
            handle.write(b'{"offset": 2, "artifact": "a", "ins')
        reopened = ReplicationLog(log.path)
        assert reopened.recovered_torn_tail
        assert reopened.last_offset == 1
        # The truncate is physical: a third open sees a clean file and the
        # next append reuses the torn record's offset.
        clean = ReplicationLog(log.path)
        assert not clean.recovered_torn_tail
        record = clean.append({"artifact": "a", "insert": [], "delete": [],
                               "previous_state": "s1", "state": "s2"})
        assert record["offset"] == 2

    def test_torn_newline_only_is_repaired(self, tmp_path):
        """A fully written final record missing only its newline is kept."""
        log = ReplicationLog(tmp_path / "nl.replog")
        log.append({"artifact": "a", "insert": [], "delete": [],
                    "previous_state": "s0", "state": "s1"})
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self._record(2)))
        reopened = ReplicationLog(log.path)
        assert reopened.recovered_torn_tail
        assert reopened.last_offset == 2
        assert not ReplicationLog(log.path).recovered_torn_tail
        assert ReplicationLog(log.path).last_offset == 2

    def test_writer_killed_mid_append_rejects_batch_and_recovers(
            self, source, tmp_path):
        """Regression: a crash mid-append must not corrupt leader or log.

        The injected ``log.append:corrupt`` fault writes half the record
        and dies.  Write-ahead ordering means the batch was never
        acknowledged and the artifact never swapped, so a restarted
        leader truncates the torn tail and serves byte-identical answers.
        """
        artifact = _copy(source, tmp_path, "leader")
        log_path = tmp_path / "leader.replog"
        service = TipService([artifact])
        ReplicationCoordinator(service, role="leader", log_path=log_path)
        name = service.artifact_names[0]
        probe = np.arange(40)
        before = service.index_for(name).theta_batch(probe).tolist()
        plan = FaultPlan(
            [FaultRule(site="log.append", action="corrupt", count=1)], seed=11)
        with faults.armed(plan):
            with pytest.raises(ReplicationError):
                service.handle("/update", {}, dict(BATCHES[0]))
        # Atomic reject: readers never saw a half-applied batch.
        assert service.index_for(name).theta_batch(probe).tolist() == before
        raw = log_path.read_bytes()
        assert raw and not raw.endswith(b"\n")  # the torn tail is on disk
        # "Restart": a fresh process truncates the tail and serves the
        # exact pre-crash answers, then applies the batch cleanly.
        restarted = TipService([artifact])
        coordinator = ReplicationCoordinator(
            restarted, role="leader", log_path=log_path)
        assert coordinator.log.recovered_torn_tail
        assert coordinator.status()["offset"] == 0
        assert restarted.index_for(name).theta_batch(probe).tolist() == before
        payload = restarted.handle("/update", {}, dict(BATCHES[0]))
        assert payload["replication"]["offset"] == 1

    def test_crash_between_append_and_swap_replays_log(self, source, tmp_path):
        """A batch fsync'd to the log but not the artifact replays at boot."""
        artifact = _copy(source, tmp_path, "leader")
        backup = tmp_path / "pre-crash-artifact"
        shutil.copytree(artifact, backup)
        log_path = tmp_path / "leader.replog"
        service = TipService([artifact])
        ReplicationCoordinator(service, role="leader", log_path=log_path)
        name = service.artifact_names[0]
        probe = np.arange(40)
        for batch in BATCHES[:2]:
            service.handle("/update", {}, dict(batch))
        want = service.index_for(name).theta_batch(probe).tolist()
        # Simulate the crash window: the log kept both records but the
        # artifact directory reverts to its pre-update contents.
        shutil.rmtree(artifact)
        shutil.copytree(backup, artifact)
        restarted = TipService([artifact])
        coordinator = ReplicationCoordinator(
            restarted, role="leader", log_path=log_path)
        assert coordinator.recovered_records == 2
        assert coordinator.status()["offset"] == 2
        assert restarted.index_for(name).theta_batch(probe).tolist() == want

    def test_artifact_changed_outside_log_is_still_fatal(self, source, tmp_path):
        """Replay only covers logged batches; a foreign artifact is fatal."""
        artifact = _copy(source, tmp_path, "leader")
        log_path = tmp_path / "leader.replog"
        service = TipService([artifact])
        ReplicationCoordinator(service, role="leader", log_path=log_path)
        service.handle("/update", {}, dict(BATCHES[0]))
        # Out-of-band mutation: a second service without the log applies a
        # different batch directly to the artifact.
        TipService([artifact]).handle("/update", {}, dict(BATCHES[2]))
        with pytest.raises(ReplicationError):
            ReplicationCoordinator(
                TipService([artifact]), role="leader", log_path=log_path)


class TestCompaction:
    def _chain(self, log, n, start=0):
        for i in range(start, start + n):
            log.append({"artifact": "a", "insert": [], "delete": [],
                        "previous_state": f"s{i}", "state": f"s{i + 1}"})

    def test_compact_drops_prefix_behind_checkpoint(self, tmp_path):
        log = ReplicationLog(tmp_path / "c.replog")
        self._chain(log, 5)
        assert log.compact(retain=2) == 3
        assert log.base_offset == 3
        assert log.checkpoint_state == "s3"
        assert log.last_offset == 5
        assert [r["offset"] for r in log.records_from(1)] == [4, 5]
        # Appends continue the chain past the checkpoint.
        self._chain(log, 1, start=5)
        assert log.last_offset == 6
        # Compacting below the retained count is a no-op.
        assert log.compact(retain=10) == 0

    def test_compacted_log_reloads_from_disk(self, tmp_path):
        log = ReplicationLog(tmp_path / "c.replog")
        self._chain(log, 5)
        log.compact(retain=2)
        reopened = ReplicationLog(tmp_path / "c.replog")
        assert reopened.base_offset == 3
        assert reopened.checkpoint_state == "s3"
        assert reopened.base_state == "s0"  # chain base survives compaction
        assert [r["offset"] for r in reopened.records_from(4)] == [4, 5]

    def test_leader_auto_compacts_past_threshold(self, source, tmp_path):
        artifact = _copy(source, tmp_path, "leader")
        service = TipService([artifact])
        coordinator = ReplicationCoordinator(
            service, role="leader", log_path=tmp_path / "l.replog",
            log_compact_threshold=2)
        for batch in BATCHES:
            service.handle("/update", {}, dict(batch))
        assert coordinator.log.base_offset > 0
        assert coordinator.log.record_count <= 2
        assert coordinator.status()["offset"] == 3

    def test_follower_behind_checkpoint_resyncs_from_snapshot(
            self, source, tmp_path):
        """A follower whose next record was compacted away re-bootstraps."""
        leader_art = _copy(source, tmp_path, "leader")
        follower_art = _copy(source, tmp_path, "follower")
        leader = TipService([leader_art])
        ReplicationCoordinator(
            leader, role="leader", log_path=tmp_path / "l.replog",
            log_compact_threshold=2)
        leader_srv, leader_url = _serve(leader)
        try:
            for batch in BATCHES:
                leader.handle("/update", {}, dict(batch))
            follower = TipService([follower_art])
            fcoord = ReplicationCoordinator(
                follower, role="follower", leader_url=leader_url)
            synced = fcoord.sync_once()
            assert synced["lag"] == 0
            assert fcoord.resyncs == 1
            name = leader.artifact_names[0]
            probe = np.arange(40)
            assert (follower.index_for(name).theta_batch(probe).tolist()
                    == leader.index_for(name).theta_batch(probe).tolist())
        finally:
            leader_srv.stop()


class TestTopology:
    """Leader + two followers over real HTTP: push, poll, catch-up, metrics."""

    def test_two_followers_converge_to_lag_zero(self, source, tmp_path):
        leader_art = _copy(source, tmp_path, "leader")
        f1_art = _copy(source, tmp_path, "f1")
        f2_art = _copy(source, tmp_path, "f2")

        f1 = TipService([f1_art])
        f1_srv, f1_url = _serve(f1)
        f2 = TipService([f2_art])
        f2_srv, f2_url = _serve(f2)

        leader = TipService([leader_art])
        lcoord = ReplicationCoordinator(
            leader, role="leader", follower_urls=(f1_url, f2_url))
        lcoord.start()
        leader_srv, leader_url = _serve(leader)

        coords = []
        for service in (f1, f2):
            fcoord = ReplicationCoordinator(
                service, role="follower", leader_url=leader_url,
                poll_interval=0.2)
            fcoord.start()
            coords.append(fcoord)
        try:
            # One update before follower 2's first poll plus two after
            # exercise push delivery and snapshot+log catch-up together.
            for batch in BATCHES:
                _post(leader_url + "/update", dict(batch))

            deadline = time.time() + 20
            while time.time() < deadline:
                statuses = [_get(url + "/replication/status")
                            for url in (f1_url, f2_url)]
                if all(s["offset"] == 3 and s["lag"] == 0 for s in statuses):
                    break
                time.sleep(0.1)
            else:
                pytest.fail(f"followers never converged: {statuses}")

            probe = "/theta/batch?vertices=" + ",".join(map(str, range(40)))
            want = _get(leader_url + probe)
            assert _get(f1_url + probe) == want
            assert _get(f2_url + probe) == want

            leader_status = _get(leader_url + "/replication/status")
            assert leader_status["role"] == "leader"
            assert leader_status["lag"] == 0
            acked = [f["acked_offset"]
                     for f in leader_status["followers"].values()]
            assert acked == [3, 3]

            log_payload = _get(leader_url + "/replication/log?from=2")
            assert [r["offset"] for r in log_payload["records"]] == [2, 3]

            # Follower surfaces: write rejection, stats, gauges, SLO.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f1_url + "/update", dict(BATCHES[0]))
            assert excinfo.value.code == 409

            stats = _get(f1_url + "/stats")
            assert stats["replication"]["role"] == "follower"
            assert stats["replication"]["offset"] == 3

            with urllib.request.urlopen(f1_url + "/metrics", timeout=10) as r:
                scrape = r.read().decode()
            for family in ("repro_replication_offset",
                           "repro_replication_lag",
                           "repro_replication_staleness_seconds"):
                assert family in scrape
            slo = _get(f1_url + "/slo")
            staleness = [o for o in slo["objectives"]
                         if o["name"] == "replication-staleness"]
            assert staleness and staleness[0]["state"] in ("ok", "no_data")
        finally:
            lcoord.stop()
            for fcoord in coords:
                fcoord.stop()
            for srv in (leader_srv, f1_srv, f2_srv):
                srv.stop()
