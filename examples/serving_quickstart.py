"""Serving quickstart: build a tip-index artifact, serve it, query it.

The full serving-layer loop in one script:

1. decompose a paper-dataset stand-in with RECEIPT,
2. persist the result as a durable ``*.tipidx`` artifact
   (``repro build-index`` does the same from the shell),
3. answer θ / top-k / k-tip queries offline from the artifact — no
   re-peeling, and
4. start the JSON HTTP service on a free port and hit every endpoint the
   way a production client would (``repro serve`` + ``curl`` equivalent),
   check it answers byte-for-byte like the offline path, and
5. exercise its NDJSON bulk protocol and read the coalescer's counters.

Run with::

    python examples/serving_quickstart.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

from repro.datasets import load_dataset
from repro.service import (
    TipIndex,
    build_index_artifact,
    load_artifact,
    start_server_thread,
)
from repro.service.server import TipService, to_jsonable


def fetch(base_url: str, route: str) -> dict:
    with urllib.request.urlopen(base_url + route, timeout=10) as response:
        return json.loads(response.read())


def fetch_raw(base_url: str, route: str) -> bytes:
    with urllib.request.urlopen(base_url + route, timeout=10) as response:
        return response.read()


def main() -> None:
    graph = load_dataset("it", scale=0.1, seed=5)
    print(f"graph: |U|={graph.n_u} |V|={graph.n_v} |E|={graph.n_edges}")

    with tempfile.TemporaryDirectory() as workdir:
        artifact_path = Path(workdir) / "it.tipidx"

        # 1+2: decompose and persist in one step (atomic write, fingerprinted).
        manifest = build_index_artifact(
            graph, artifact_path, side="U", algorithm="receipt", n_partitions=8,
        )
        print(f"artifact: {manifest.name}, fingerprint {manifest.fingerprint[:12]}...")

        # 3: offline queries — mmap-backed load, no re-peeling.
        index = TipIndex.from_artifact(load_artifact(artifact_path))
        top_vertices, top_thetas = index.top_k(3)
        print(f"max θ = {index.max_tip_number} over {index.n_vertices} vertices")
        print(f"top-3 vertices by θ: {top_vertices.tolist()} (θ = {top_thetas.tolist()})")
        k = max(1, index.max_tip_number // 2)
        print(f"|{k}-tip| = {index.k_tip_size(k)} vertices")

        # 4: the HTTP service (port 0 = pick a free port).
        handle = start_server_thread([artifact_path])
        base_url = handle.base_url
        print(f"\nserving on {base_url}")

        print("GET /healthz ->", fetch(base_url, "/healthz"))
        print("GET /theta?vertex=0 ->", fetch(base_url, "/theta?vertex=0"))
        batch = fetch(base_url, "/theta/batch?vertices=0,1,2,3")
        print("GET /theta/batch?vertices=0,1,2,3 ->", batch)
        print("GET /top-k?k=3 ->", fetch(base_url, "/top-k?k=3"))
        ktip = fetch(base_url, f"/k-tip?k={k}&limit=5")
        print(f"GET /k-tip?k={k}&limit=5 -> size={ktip['size']} head={ktip['vertices']}")
        community = fetch(base_url, f"/community?k={index.max_tip_number}")
        print(f"GET /community?k={index.max_tip_number} -> "
              f"{community['n_communities']} communities, "
              f"sizes {[len(c) for c in community['communities']]}")
        stats = fetch(base_url, "/stats")
        print("GET /stats -> cache", stats["cache"])

        # The server routes through the same TipService.handle as
        # `repro query`, so both answer byte for byte alike.
        offline = TipService([artifact_path])
        for route, params in (("/theta", {"vertex": "0"}), ("/top-k", {"k": "3"})):
            query = "&".join(f"{key}={value}" for key, value in params.items())
            want = json.dumps(to_jsonable(offline.handle(route, params))).encode()
            assert fetch_raw(base_url, f"{route}?{query}") == want
        print("byte-identical answers served and offline")

        # 5: NDJSON bulk: one batch request per body line.
        request = urllib.request.Request(
            base_url + "/theta/batch",
            data=b'{"vertices": [0, 1, 2]}\n[3, 4]\n',
            headers={"Content-Type": "application/x-ndjson"}, method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            lines = response.read().strip().split(b"\n")
        print("POST /theta/batch (NDJSON, 2 lines) ->",
              [json.loads(line)["thetas"] for line in lines])
        coalescer = fetch(base_url, "/stats?fresh=1")["transport"]["coalescer"]
        print("coalescer:", {key: coalescer[key] for key in
                             ("batches_flushed", "mean_batch_size")})
        handle.stop()
    print("\ndone: the same artifact can be rebuilt with "
          "`repro build-index` and served with `repro serve`.")


if __name__ == "__main__":
    main()
