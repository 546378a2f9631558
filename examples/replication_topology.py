"""Sharded + replicated serving topology: leader, two followers, one process.

The operator runbook (docs/SHARDING.md) walks through the same topology as
three ``repro serve`` processes in three terminals; this script runs it
in-process so CI can smoke the full loop deterministically:

1. decompose a planted-community graph and persist a ``*.tipidx`` artifact,
2. split it into a persisted θ-range shard plan (``repro shard-plan``),
3. start a **leader** (sharded, with a replication log and push fan-out)
   and **two followers** (one per copy of the artifact) over real HTTP,
4. apply live edge updates at the leader only,
5. wait for both followers to converge (offset caught up, lag 0), and
6. prove replicated reads: the same ``/theta/batch`` answer, byte for
   byte, from all three servers — then show the staleness gauges.

Run with::

    python examples/replication_topology.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.datasets import load_dataset
from repro.service import build_index_artifact
from repro.service.replication import ReplicationCoordinator
from repro.service.aserver import start_server_thread
from repro.service.server import TipService
from repro.service.sharding import write_shard_plan


def make_updates(graph) -> tuple:
    """Three valid update batches: absent edges to insert, present to delete.

    Scanning the edge set keeps the script correct on any dataset scale —
    a hard-coded batch would 409 whenever an insert already exists.
    """
    present = set(graph.edges())
    missing = [(u, v) for u in range(graph.n_u) for v in range(graph.n_v)
               if (u, v) not in present][:5]
    first_present = next(iter(sorted(present)))
    return (
        {"insert": [list(missing[0]), list(missing[1])]},
        {"insert": [list(missing[2])], "delete": [list(first_present)]},
        {"insert": [list(missing[3]), list(missing[4])]},
    )


def fetch(base_url: str, route: str) -> dict:
    """GET ``route`` and decode the JSON body."""
    with urllib.request.urlopen(base_url + route, timeout=10) as response:
        return json.loads(response.read())


def fetch_raw(base_url: str, route: str) -> bytes:
    """GET ``route`` and return the raw body (for byte-identity checks)."""
    with urllib.request.urlopen(base_url + route, timeout=10) as response:
        return response.read()


def post(base_url: str, route: str, payload: dict) -> dict:
    """POST a JSON body to ``route`` and decode the JSON answer."""
    request = urllib.request.Request(
        base_url + route, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def serve(service: TipService) -> tuple:
    """Serve ``service`` on a free port: (server handle, base URL)."""
    handle = start_server_thread(service=service)
    return handle, handle.base_url


def main() -> None:
    graph = load_dataset("it", scale=0.1, seed=5)
    print(f"graph: |U|={graph.n_u} |V|={graph.n_v} |E|={graph.n_edges}")
    updates = make_updates(graph)

    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        source = work / "it.tipidx"
        manifest = build_index_artifact(
            graph, source, side="U", algorithm="receipt", n_partitions=8)
        print(f"artifact: {manifest.name}, fingerprint "
              f"{manifest.fingerprint[:12]}...")

        # A persisted shard plan next to the artifact — `repro shard-plan`
        # writes the same directory from the shell.
        plan = write_shard_plan(source, work / "it.tipshards", 3)
        ranges = [(s["theta_min"], s["theta_max"]) for s in plan["shards"]]
        print(f"shard plan: {plan['n_shards']} θ-range shards, ranges {ranges}")

        # Each replica owns its own copy of the artifact, exactly like
        # three hosts would.
        replicas = {}
        for name in ("leader", "follower-1", "follower-2"):
            dest = work / name / "it.tipidx"
            dest.parent.mkdir()
            shutil.copytree(source, dest)
            replicas[name] = dest

        # Followers first, so the leader can push to their URLs.
        f1 = TipService([replicas["follower-1"]])
        f1_srv, f1_url = serve(f1)
        f2 = TipService([replicas["follower-2"]])
        f2_srv, f2_url = serve(f2)

        # The leader serves the *sharded* view of the same artifact — the
        # router is transport-free, so replication composes with sharding.
        leader = TipService([replicas["leader"]], shards=3)
        lcoord = ReplicationCoordinator(
            leader, role="leader", follower_urls=(f1_url, f2_url))
        lcoord.start()
        leader_srv, leader_url = serve(leader)
        print(f"\nleader   {leader_url}  (3 shards, push fan-out)")

        fcoords = []
        for service, url in ((f1, f1_url), (f2, f2_url)):
            fcoord = ReplicationCoordinator(
                service, role="follower", leader_url=leader_url,
                poll_interval=0.2)
            fcoord.start()
            fcoords.append(fcoord)
            print(f"follower {url}  (poll every 0.2s)")

        try:
            for i, batch in enumerate(updates, start=1):
                answer = post(leader_url, "/update", dict(batch))
                print(f"update {i}: replication offset "
                      f"{answer['replication']['offset']}")

            deadline = time.time() + 60
            statuses = []
            while time.time() < deadline:
                statuses = [fetch(url, "/replication/status")
                            for url in (f1_url, f2_url)]
                if all(s["offset"] == len(updates) and s["lag"] == 0
                       for s in statuses):
                    break
                time.sleep(0.1)
            else:
                raise SystemExit(f"followers never converged: {statuses}")
            print(f"\nconverged: both followers at offset {len(updates)}, "
                  "lag 0")

            probe = "/theta/batch?vertices=" + ",".join(
                str(v) for v in range(0, graph.n_u, max(1, graph.n_u // 64)))
            want = fetch_raw(leader_url, probe)
            assert fetch_raw(f1_url, probe) == want
            assert fetch_raw(f2_url, probe) == want
            print("replicated reads: /theta/batch byte-identical on "
                  "leader and both followers")

            for label, url in (("follower-1", f1_url), ("follower-2", f2_url)):
                status = fetch(url, "/replication/status")
                print(f"{label}: offset={status['offset']} "
                      f"lag={status['lag']} "
                      f"staleness={status['staleness_seconds']:.3f}s")
            leader_status = fetch(leader_url, "/replication/status")
            acked = {url: f["acked_offset"]
                     for url, f in leader_status["followers"].items()}
            print(f"leader acks: {acked}")

            scrape = fetch_raw(f1_url, "/metrics").decode()
            families = [line for line in scrape.splitlines()
                        if line.startswith("repro_replication_")
                        and not line.startswith("#")]
            print("follower-1 gauges:", *families, sep="\n  ")
        finally:
            lcoord.stop()
            for fcoord in fcoords:
                fcoord.stop()
            for srv in (leader_srv, f1_srv, f2_srv):
                srv.stop()
    print("\ndone: the same topology runs from the shell with "
          "`repro serve --role leader --follower URL ...` and "
          "`repro serve --role follower --leader URL` "
          "(see docs/SHARDING.md).")


if __name__ == "__main__":
    main()
