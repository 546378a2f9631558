"""Chaos smoke: a replicated topology survives a seeded fault schedule.

The resilience runbook (docs/RESILIENCE.md) promises that under injected
faults the serving tier fails *requests*, never *answers*, and that a
follower which diverged on a corrupted record re-bootstraps from a leader
snapshot without operator action.  This script proves both over real
HTTP, deterministically — the same seed always injects the same faults:

1. decompose a planted-community graph and persist a ``*.tipidx``
   artifact; copy it for one **leader** (2-shard router) and two
   **followers**,
2. arm a seeded :class:`~repro.service.faults.FaultPlan` that drops and
   corrupts replication pushes (every rule count-capped, so the schedule
   provably clears),
3. apply live edge updates at the leader while the faults fire — pushes
   fail or deliver tampered records, marking a follower *diverged*; each
   follower catches up between updates with one explicit poll round, so
   every push lands on a current replica and the fault window is the same
   on every run,
4. wait for automatic recovery: the poll path detects the divergence,
   fetches ``/replication/snapshot``, re-bootstraps, and converges to
   lag 0 (the background poll threads start after the last update),
5. prove the reads: ``/theta/batch`` byte-identical on all three
   servers, and print the recovery evidence (resync count, breaker and
   fault-injection metrics).

Run with::

    python examples/chaos_topology.py
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.datasets import load_dataset
from repro.service import build_index_artifact, faults
from repro.service.faults import FaultPlan
from repro.service.replication import ReplicationCoordinator
from repro.service.server import TipService

from replication_topology import fetch, fetch_raw, make_updates, post, serve

#: Deterministic chaos schedule: the first two pushes are dropped, the
#: next two deliver records tampered in flight (forcing divergence + the
#: snapshot re-bootstrap), and every poll is delayed a little.  All rules
#: are count-capped, so the schedule exhausts and recovery must follow.
FAULT_PLAN = ("replication.push:drop:count=2;"
              "replication.push:corrupt:count=2;"
              "replication.poll:delay:ms=5:count=8")
FAULT_SEED = 20


def main() -> None:
    graph = load_dataset("it", scale=0.1, seed=5)
    print(f"graph: |U|={graph.n_u} |V|={graph.n_v} |E|={graph.n_edges}")
    updates = make_updates(graph)

    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        source = work / "it.tipidx"
        build_index_artifact(
            graph, source, side="U", algorithm="receipt", n_partitions=8)

        replicas = {}
        for name in ("leader", "follower-1", "follower-2"):
            dest = work / name / "it.tipidx"
            dest.parent.mkdir()
            shutil.copytree(source, dest)
            replicas[name] = dest

        f1 = TipService([replicas["follower-1"]])
        f1_srv, f1_url = serve(f1)
        f2 = TipService([replicas["follower-2"]])
        f2_srv, f2_url = serve(f2)

        leader = TipService([replicas["leader"]], shards=2)
        lcoord = ReplicationCoordinator(
            leader, role="leader", log_path=work / "leader.replog",
            follower_urls=(f1_url, f2_url))
        lcoord.start()
        leader_srv, leader_url = serve(leader)
        print(f"\nleader   {leader_url}  (2 shards, replication log, "
              "push fan-out)")

        fcoords = []
        for service, url in ((f1, f1_url), (f2, f2_url)):
            fcoords.append(ReplicationCoordinator(
                service, role="follower", leader_url=leader_url,
                poll_interval=0.2))
            print(f"follower {url}  (poll every 0.2s once the updates "
                  "are in)")

        plan = FaultPlan.parse(FAULT_PLAN, seed=FAULT_SEED)
        print(f"\nfault plan ARMED (seed {FAULT_SEED}): "
              + "; ".join(f"{r.site}:{r.action}x{r.count}"
                          for r in plan.rules))

        try:
            with faults.armed(plan):
                for i, batch in enumerate(updates, start=1):
                    answer = post(leader_url, "/update", dict(batch))
                    print(f"update {i}: offset "
                          f"{answer['replication']['offset']} "
                          "(pushes may be dropped or corrupted)")
                    # Catch the followers up between updates so the
                    # corrupt pushes hit replicas that are current — a
                    # tampered record then *must* mark divergence.  No
                    # poll thread runs yet: a background poll could apply
                    # a record before its tampered push arrives, and the
                    # push would then be ignored as already applied.
                    for fcoord in fcoords:
                        fcoord.sync_once()

                # Recovery must happen *while* the plan is still armed —
                # the count-capped rules simply run out of budget.
                for fcoord in fcoords:
                    fcoord.start()
                deadline = time.time() + 60
                statuses = []
                while time.time() < deadline:
                    statuses = [fetch(url, "/replication/status")
                                for url in (f1_url, f2_url)]
                    if all(s["offset"] == len(updates) and s["lag"] == 0
                           and s["diverged"] is None for s in statuses):
                        break
                    time.sleep(0.1)
                else:
                    raise SystemExit(
                        f"followers never recovered: {statuses}")
                resilience = fetch(leader_url, "/stats?fresh=1")["resilience"]

            injected = plan.stats()
            print(f"\nfaults injected: {injected['injected_total']} "
                  f"({injected['by_site']})")
            resyncs = [s["resyncs"] for s in statuses]
            assert sum(resyncs) >= 1, (
                "the corrupted pushes should have forced at least one "
                f"snapshot re-bootstrap, got resyncs={resyncs}")
            print(f"converged: both followers at offset {len(updates)}, "
                  f"lag 0 (snapshot resyncs per follower: {resyncs})")

            probe = "/theta/batch?vertices=" + ",".join(
                str(v) for v in range(0, graph.n_u, max(1, graph.n_u // 64)))
            want = fetch_raw(leader_url, probe)
            assert fetch_raw(f1_url, probe) == want
            assert fetch_raw(f2_url, probe) == want
            print("reads after chaos: /theta/batch byte-identical on "
                  "leader and both followers")

            print(f"leader resilience: retries="
                  f"{resilience['retry']['retries_total']} "
                  f"breakers={[b['state'] for b in resilience['breakers']]} "
                  f"faults_injected={resilience['faults']['injected_total']}")
        finally:
            lcoord.stop()
            for fcoord in fcoords:
                fcoord.stop()
            for srv in (leader_srv, f1_srv, f2_srv):
                srv.stop()
    print("\ndone: arm the same schedule from the shell with "
          "`repro serve --fault-plan '" + FAULT_PLAN + "' "
          f"--fault-seed {FAULT_SEED}` (see docs/RESILIENCE.md).")


if __name__ == "__main__":
    main()
