"""``serve_live``: single-edge swaps beside scheduled reads on one shard.

Set-up exports an AMUD-guided model of a directed-regime dataset (ADPA,
a few epochs) with ``repro export`` and registers the restored artifact as
the one shard of an in-process ``ShardRouter`` (deltas have no HTTP
route).  In the timed phase one thread applies single-edge
``GraphDelta`` inserts through ``update_shard`` back to back, so the
engine's state never depends on how writes line up with a clock.  A
second thread submits reads on a fixed schedule through
``ShardRouter.submit``; each read is timed from when it was due, and how
late the generator sent it is reported.  Swaps alternate between
inserting an edge and removing it again, so the work per swap does not
depend on the seed.

Every swap runs ``graph.delta``, the incremental fingerprint, ADPA's full
re-preprocess and the cache retire; the next read pays the logits miss
(a trace compile).  Edges, read times and node subsets come from the seed.
After the timed phase every swap's fingerprint is checked against a full
fingerprint of a graph rebuilt here from the original edges plus the
inserted ones, and sampled reads against an eager forward of a separately
restored copy on the graph version that served them.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
import traceback
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

from common import Context, Outcome, check, mean, median, percentile, self_peak_rss_mb

LIVE_DATASET = "wisconsin"
EXPORT_EPOCHS = 2
READ_INTERVAL_S = 0.01
READ_NODES = 16
EDGE_POOL = 2000
SAMPLED_READS = 12
SETUP_REPEATS = 3


def candidate_edges(seed: int, adjacency: sp.csr_matrix) -> np.ndarray:
    """Distinct ``(u, v)`` pairs, ``u != v``, absent from the graph."""
    rng = np.random.default_rng(seed)
    n = adjacency.shape[0]
    present = set(zip(*adjacency.nonzero()))
    edges, seen = [], set()
    while len(edges) < EDGE_POOL:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in present and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return np.asarray(edges, dtype=np.int64)


def set_up(ctx: Context, session, rep: int):
    """Export in a child process, as a trainer would, so this process's
    peak memory is that of restoring and serving, not of training."""
    from repro.api import ServeConfig

    artifact = ctx.workdir / f"artifact-{rep}"
    done = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "export", LIVE_DATASET,
            "--epochs", str(EXPORT_EPOCHS), "--patience", str(EXPORT_EPOCHS),
            "--out", str(artifact),
        ],
        cwd=str(ctx.workdir),
        env=ctx.child_env(),
        capture_output=True,
        text=True,
    )
    check(done.returncode == 0, f"repro export failed:\n{done.stderr[-3000:]}")
    model = session.restore(artifact)
    check(
        model.model_name == "ADPA" and model.decision.keep_directed,
        f"the AMUD-guided export of {LIVE_DATASET} is {model.model_name}, "
        f"{model.decision.modeling}; expected ADPA on the directed graph",
    )
    router = session.serve(model, config=ServeConfig())
    router.start()
    shard = router.shards()[0].name
    router.predict([0], shard=shard)  # warm: logits memoised before timing
    return model, artifact, router, shard


def install_spans(tracer) -> None:
    import repro.adpa.model as adpa_model
    import repro.serving.trace as serving_trace
    from repro.adpa.model import ADPA
    from repro.graph.digraph import DirectedGraph

    tracer.wrap(DirectedGraph, "apply_delta", "graph.DirectedGraph.apply_delta")
    tracer.wrap(ADPA, "preprocess", "adpa.ADPA.preprocess")
    tracer.wrap(
        adpa_model,
        "build_dp_operators",
        "graph.build_dp_operators",
        after=lambda ops: {"nnz": int(sum(matrix.nnz for matrix in ops.values()))},
    )
    tracer.wrap(adpa_model, "propagate_features", "adpa.propagate_features")
    tracer.wrap(serving_trace, "compile_forward", "trace.compile_forward")


def run(ctx: Context) -> Outcome:
    from repro.api import GraphDelta, Session
    from repro.fingerprint import graph_fingerprint
    from repro.graph.digraph import DirectedGraph

    session = Session()
    setup_times = []
    router = None
    try:
        for rep in range(SETUP_REPEATS):
            began = time.perf_counter()
            model, artifact, router, shard = set_up(ctx, session, rep)
            setup_times.append(time.perf_counter() - began)
            if rep < SETUP_REPEATS - 1:
                router.stop()
        original = model.graph
        edges = candidate_edges(ctx.seed, original.adjacency)
        rng = np.random.default_rng(ctx.seed + 1)
        reads_planned = int(ctx.seconds / READ_INTERVAL_S)
        read_nodes = [
            np.sort(rng.choice(original.num_nodes, size=READ_NODES, replace=False))
            for _ in range(reads_planned)
        ]
        sampled = set(np.linspace(0, reads_planned - 1, SAMPLED_READS).astype(int).tolist())
        if ctx.trace:
            install_spans(ctx.tracer)
        setup_rss = self_peak_rss_mb()

        swaps: List[dict] = []
        reads: List[dict] = []
        errors = {"swaps": 0, "reads": 0}
        first_op = time.perf_counter()
        setup_s = (first_op - ctx.started_at) - sum(setup_times) + median(setup_times)
        end = first_op + ctx.seconds

        def writer() -> None:
            # Swap 2k inserts edge k and swap 2k+1 removes it again, so the
            # graph never drifts from the original by more than one edge and
            # every swap costs the same whatever edges the seed drew.
            for k in range(2 * len(edges)):
                began = time.perf_counter()
                if began >= end:
                    return
                edge = [edges[k // 2].tolist()]
                delta = GraphDelta(add_edges=edge) if k % 2 == 0 else GraphDelta(remove_edges=edge)
                traced = ctx.traced_at(first_op, began)
                ctx.tracer.enabled = traced
                try:
                    swap = router.update_shard(shard, delta, timeout=60.0)
                except Exception:
                    traceback.print_exc()
                    errors["swaps"] += 1
                    continue
                finished = time.perf_counter()
                swaps.append(
                    {
                        "k": k,
                        "ms": 1e3 * (finished - began),
                        "finished": finished,
                        "traced": traced,
                        "fingerprint": swap.new_fingerprint,
                        "in_place": swap.in_place,
                    }
                )

        def reader() -> None:
            for k in range(reads_planned):
                due = first_op + k * READ_INTERVAL_S
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                record = {"k": k, "due": due, "sent": time.perf_counter(), "done": None}
                try:
                    ticket = router.submit(read_nodes[k], shard=shard)
                except Exception:
                    traceback.print_exc()
                    errors["reads"] += 1
                    continue
                ticket.add_done_callback(
                    lambda _t, r=record: r.__setitem__("done", time.perf_counter())
                )
                record["ticket"] = ticket
                reads.append(record)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ctx.tracer.enabled = False
        for record in reads:
            ticket = record.pop("ticket")
            try:
                predictions = ticket.result(timeout=60.0)
            except Exception:
                traceback.print_exc()
                errors["reads"] += 1
                record["done"] = None
                continue
            if record["k"] in sampled:
                record["graph"] = ticket.graph
                record["predictions"] = predictions
            if ctx.traced_at(first_op, record["sent"]):
                record["spans"] = ticket.spans()
        timed_s = max([end] + [s["finished"] for s in swaps]) - first_op
        stats = router.stats()
    finally:
        if router is not None:
            router.stop()
    peak_rss = self_peak_rss_mb()

    # Each swap's incremental fingerprint against a full rehash of a
    # graph rebuilt from the original edges plus the edges inserted and
    # not yet removed.
    base = original.adjacency.tocoo()
    inserted = set()
    tracer = ctx.tracer
    tracer.enabled = ctx.trace
    for swap in swaps:
        edge = tuple(edges[swap["k"] // 2].tolist())
        if swap["k"] % 2 == 0:
            inserted.add(edge)
        else:
            inserted.discard(edge)
        rows = np.concatenate([base.row, [u for u, _ in inserted]]).astype(np.int64)
        cols = np.concatenate([base.col, [v for _, v in inserted]]).astype(np.int64)
        rebuilt = DirectedGraph(
            adjacency=sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=base.shape),
            features=original.features,
            labels=original.labels,
            train_mask=original.train_mask,
            val_mask=original.val_mask,
            test_mask=original.test_mask,
            name=original.name,
        )
        full = tracer.call("fingerprint.graph_fingerprint", graph_fingerprint, rebuilt)
        check(
            full == swap["fingerprint"],
            f"swap {swap['k']} (edge {edge}): incremental fingerprint "
            f"{swap['fingerprint'][:16]} != full rehash {full[:16]}",
        )
    tracer.enabled = False

    # Sampled reads against an eager forward on the version that served them.
    restored = Session().restore(artifact)
    eager: Dict[str, np.ndarray] = {}
    for record in reads:
        if "graph" not in record:
            continue
        graph = record.pop("graph")
        key = graph.fingerprint()
        if key not in eager:
            eager[key] = restored.model.predict_logits(graph).argmax(axis=1)
        expected = eager[key][read_nodes[record["k"]]]
        check(
            np.array_equal(record.pop("predictions"), expected),
            f"read {record['k']} on graph {key[:16]}: served predictions differ from an eager forward",
        )

    attempted = len(swaps) + errors["swaps"] + reads_planned
    failed = errors["swaps"] + errors["reads"]
    answered = [r for r in reads if r["done"] is not None]
    plain_reads = [1e3 * (r["done"] - r["due"]) for r in answered if not ctx.traced_at(first_op, r["due"])]
    late = [1e3 * max(0.0, r["sent"] - r["due"]) for r in reads]
    plain_swaps = [s["ms"] for s in swaps if not s["traced"]]
    report = {
        "setup_repeats_s": [round(t, 4) for t in setup_times],
        "setup_peak_rss_mb": round(setup_rss, 1),
        "swaps": len(swaps),
        "reads": len(answered),
        "threads": 2,
        "read_interval_ms": 1e3 * READ_INTERVAL_S,
        "generator_late_ms": {
            "p50": round(median(late), 4),
            "p99": round(percentile(late, 99), 4),
            "max": round(max(late), 4) if late else 0.0,
        },
        "swap_ms": {q: round(percentile(plain_swaps, q), 4) for q in (10, 50, 90, 99)},
        "sampled_reads_checked": len(sampled),
        "graph_versions_checked": len(eager),
    }
    if ctx.trace:
        traced_swaps = [s for s in swaps if s["traced"]]
        spans = [r["spans"] for r in reads if "spans" in r]
        operator = stats.shards[shard].cache
        layer = {
            f"engine.{stage}_ms": (mean([t[stage] for t in spans]), "ms")
            for stage in ("queue", "cache", "forward", "deliver")
        }
        last = restored.graph
        cache = restored.model.preprocess(last)
        tracer.enabled = True
        for _ in range(10):
            tracer.call("adpa.predict_logits", restored.model.predict_logits, last, cache)
        tracer.enabled = False
        nnz = [s[4]["nnz"] for s in tracer.closed("graph.build_dp_operators")]
        layer.update(
            {
                "graph.apply_delta_ms": (median(tracer.durations_ms("graph.DirectedGraph.apply_delta")), "ms"),
                "fingerprint.full_ms": (median(tracer.durations_ms("fingerprint.graph_fingerprint")), "ms"),
                "adpa.preprocess_ms": (median(tracer.durations_ms("adpa.ADPA.preprocess")), "ms"),
                "graph.dp_operators_ms": (median(tracer.durations_ms("graph.build_dp_operators")), "ms"),
                "graph.dp_operators_nnz": (median(nnz), "count"),
                "adpa.propagate_ms": (median(tracer.durations_ms("adpa.propagate_features")), "ms"),
                "adpa.forward_ms": (median(tracer.durations_ms("adpa.predict_logits")), "ms"),
                "trace.compile_ms": (median(tracer.durations_ms("trace.compile_forward")), "ms"),
                "trace.compiles": (stats.trace.compiles if stats.trace else 0, "count"),
                "engine.forwards": (stats.shards[shard].forwards, "count"),
                "engine.mean_batch_size": (stats.shards[shard].mean_batch_size, "count"),
                "cache.logit_hit_ratio": (stats.shards[shard].logit_cache.hit_rate, "ratio"),
                "cache.operator_hit_ratio": (operator.hit_rate, "ratio"),
                "swaps.in_place": (sum(s["in_place"] for s in traced_swaps), "count"),
                "live.swap_p50_ms": (median(plain_swaps), "ms"),
                "latency_p99_ms": (percentile(plain_reads, 99), "ms"),
                "loadgen.late_p99_ms": (percentile(late, 99), "ms"),
                "trace.overhead_pct": (
                    100.0 * (median([s["ms"] for s in traced_swaps]) / median(plain_swaps) - 1.0),
                    "%",
                ),
            }
        )
        return Outcome(attempted, failed, layer, report)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "latency_p50_ms": (median(plain_reads), "ms"),
        "throughput_per_s": (len(swaps) / timed_s, "1/s"),
    }
    return Outcome(attempted, failed, metrics, report)
