"""``serve_hot`` and ``serve_cluster``: memoised-logit traffic over HTTP.

Set-up trains ADPA for a few epochs on three datasets of both AMUD
regimes, exports the artifacts and starts ``repro serve`` on them as a
child process (``--workers 2`` for ``serve_cluster``), so the client never
shares the server's interpreter lock.  The server is ready when it prints
its "serving … at URL" line.  A warm-up then makes every shard's logits
memoised.

The timed phase is a closed loop on one keep-alive connection: each
``/predict`` asks for a fixed number of nodes of one shard, shards drawn
with a Zipf skew.  Requests, node subsets and shard choices come from the
seed.  Every response is checked, after the timed phase, against the
argmax of an eager forward of a separately restored copy of its artifact.
"""

from __future__ import annotations

import http.client
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from common import Context, Outcome, ServeChild, check, mean, median, percentile, windowed_rate

SERVE_DATASETS = ("chameleon", "citeseer", "texas")
ADPA_KWARGS = {"hidden": 64, "num_steps": 3}
EXPORT_EPOCHS = 2
REQUEST_NODES = 16
ZIPF_EXPONENT = 1.1
STREAM_LENGTH = 20000
WARMUP_REQUESTS = 200
SETUP_REPEATS = 3
CLUSTER_WORKERS = 2
#: in-process comparison calls per layer (traced runs only)
LAYER_CALLS = 150


def request_stream(seed: int, sizes: Dict[str, int]) -> List[Tuple[str, bytes, np.ndarray]]:
    """``(shard, body, node_ids)`` per request, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    names = list(SERVE_DATASETS)
    weights = 1.0 / np.arange(1, len(names) + 1) ** ZIPF_EXPONENT
    picks = rng.choice(len(names), size=STREAM_LENGTH, p=weights / weights.sum())
    stream = []
    for pick in picks:
        name = names[pick]
        nodes = np.sort(rng.choice(sizes[name], size=REQUEST_NODES, replace=False))
        body = json.dumps({"node_ids": nodes.tolist(), "shard": name}).encode()
        stream.append((name, body, nodes))
    return stream


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def post(self, body: bytes) -> Tuple[int, bytes]:
        self.conn.request(
            "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        payload = response.read()
        check(response.status == 200, f"GET {path} answered {response.status}")
        return json.loads(payload)

    def reconnect(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)

    def close(self) -> None:
        self.conn.close()


def export_artifacts(session, directory: Path) -> List[Path]:
    from repro.api import TrainConfig

    train = TrainConfig(epochs=EXPORT_EPOCHS, patience=EXPORT_EPOCHS)
    paths = []
    for name in SERVE_DATASETS:
        modeled = session.load(name).amud()
        model = modeled.fit("ADPA", train=train, **ADPA_KWARGS)
        paths.append(model.save(directory / name))
    return paths


def set_up(ctx: Context, session, rep: int, stream) -> Tuple[ServeChild, List[Path], Client]:
    directory = ctx.workdir / f"artifacts-{rep}"
    artifacts = export_artifacts(session, directory)
    args = [str(path) for path in artifacts] + ["--port", "0"]
    if ctx.workload == "serve_cluster":
        args += ["--workers", str(CLUSTER_WORKERS)]
    child = ServeChild(ctx, args)
    client = Client(child.host, child.port)
    # Each shard's first request compiles its forward; doing those in a
    # fixed order keeps the server's peak memory independent of the seed.
    fixed = [json.dumps({"node_ids": [0], "shard": name}).encode() for name in SERVE_DATASETS]
    for body in fixed + [body for _, body, _ in stream[:WARMUP_REQUESTS]]:
        status, payload = client.post(body)
        check(status == 200, f"warm-up request answered {status}: {payload[:200]!r}")
    return child, artifacts, client


def in_process_layers(ctx: Context, artifacts: List[Path], stream) -> Dict[str, tuple]:
    """``InferenceServer.predict`` and ``ShardRouter.predict`` in this
    process on the same artifacts and coalescing window as the server."""
    from repro.api import ServeConfig, Session
    from repro.serving import InferenceServer

    config = ServeConfig()
    tracer = ctx.tracer
    calls = [(name, nodes) for name, _, nodes in stream[:LAYER_CALLS]]
    router = Session(serve=config).serve(*artifacts)
    with router:
        for name, nodes in calls[:20]:
            router.predict(nodes, shard=name)
        tracer.enabled = True
        for name, nodes in calls:
            tracer.call("router.ShardRouter.predict", router.predict, nodes, shard=name)
        tracer.enabled = False
    engine, _ = InferenceServer.from_artifact(artifacts[0], **config.engine_kwargs())
    own = [nodes for name, _, nodes in stream[:LAYER_CALLS] if name == SERVE_DATASETS[0]]
    with engine:
        for nodes in own[:20]:
            engine.predict(nodes)
        tracer.enabled = True
        for nodes in own:
            tracer.call("engine.InferenceServer.predict", engine.predict, nodes)
        tracer.enabled = False
    return {
        "router.predict_ms": (median(tracer.durations_ms("router.ShardRouter.predict")), "ms"),
        "engine.predict_ms": (median(tracer.durations_ms("engine.InferenceServer.predict")), "ms"),
    }


def pool_call_layer(ctx: Context, artifacts: List[Path], stream) -> Dict[str, tuple]:
    """``WorkerPool.call("predict")`` from this process over pipe workers
    loaded like the ``repro serve --workers`` ones."""
    from repro.cluster import WorkerPool

    tracer = ctx.tracer
    load = {"artifacts": [str(path) for path in artifacts], "cache_dir": None, "serve": {}}
    with WorkerPool(CLUSTER_WORKERS, init_ops=[("load", load)]) as pool:
        calls = [
            {"node_ids": nodes.tolist(), "shard": name, "timeout": 60.0}
            for name, _, nodes in stream[:LAYER_CALLS]
        ]
        for args in calls[:20]:
            pool.call("predict", args)
        tracer.enabled = True
        for args in calls:
            tracer.call("cluster.WorkerPool.call", pool.call, "predict", args)
        tracer.enabled = False
    return {"cluster.pool_call_ms": (median(tracer.durations_ms("cluster.WorkerPool.call")), "ms")}


def answer_layers(ctx: Context, answers, traced_latencies: List[float]) -> Dict[str, tuple]:
    """Per-layer figures of the traced requests, read from their own
    ``/predict`` answers: the engine's stage spans and the server-side
    latency it records in its histogram, so the client and server medians
    are taken over the same requests."""
    spans: Dict[str, list] = {stage: [] for stage in ("queue", "cache", "forward", "deliver")}
    server_ms = []
    for _, payload, traced in answers:
        if traced:
            answer = json.loads(payload)
            server_ms.append(answer["latency_ms"])
            for stage in spans:
                spans[stage].append(answer["spans"][stage])
    metrics = {f"engine.{stage}_ms": (mean(values), "ms") for stage, values in spans.items()}
    residue = median(traced_latencies) - median(server_ms)
    metrics["http.server_p50_ms"] = (median(server_ms), "ms")
    # On serve_cluster the server side is the worker, so the residue is the hop.
    residue_name = "cluster.hop_ms" if ctx.workload == "serve_cluster" else "http.residue_ms"
    metrics[residue_name] = (residue, "ms")
    return metrics


def stats_layers(ctx: Context, client: Client) -> Dict[str, tuple]:
    """Counters the server reports about itself (``GET /stats``), read
    once after the traced phase."""
    stats = client.get("/stats")
    if ctx.workload == "serve_cluster":
        routers = [entry["router"] for entry in stats["workers"].values()]
        pool = stats["pool"]
    else:
        routers = [stats]
    shard_stats = [shard for router in routers for shard in router["shards"].values()]
    requests = sum(shard["requests"] for shard in shard_stats)
    batches = sum(shard["batches"] for shard in shard_stats)
    # One logit cache and one operator cache per router, shared by its shards.
    logit = [next(iter(router["shards"].values()))["logit_cache"] for router in routers]
    operator = [next(iter(router["shards"].values()))["cache"] for router in routers]
    metrics = {
        "engine.mean_batch_size": (requests / batches, "count"),
        "engine.forwards": (sum(shard["forwards"] for shard in shard_stats), "count"),
        "cache.logit_hit_ratio": (
            sum(c["hits"] for c in logit) / sum(c["hits"] + c["misses"] for c in logit),
            "ratio",
        ),
        "cache.operator_hit_ratio": (
            sum(c["hits"] for c in operator)
            / max(1, sum(c["hits"] + c["misses"] for c in operator)),
            "ratio",
        ),
        "trace.compiles": (
            sum((router.get("trace") or {}).get("compiles", 0) for router in routers),
            "count",
        ),
    }
    if ctx.workload == "serve_cluster":
        metrics["cluster.restarts"] = (pool["restarts"], "count")
        metrics["cluster.retries"] = (pool["retries"], "count")
    return metrics


def run(ctx: Context) -> Outcome:
    from repro.api import Session
    from repro.datasets import load_dataset

    session = Session()
    sizes = {name: load_dataset(name).num_nodes for name in SERVE_DATASETS}
    stream = request_stream(ctx.seed, sizes)

    setup_times = []
    child = client = artifacts = None
    try:
        for rep in range(SETUP_REPEATS):
            began = time.perf_counter()
            child, artifacts, client = set_up(ctx, session, rep, stream)
            setup_times.append(time.perf_counter() - began)
            if rep < SETUP_REPEATS - 1:
                client.close()
                child.stop()
                shutil.rmtree(ctx.workdir / f"artifacts-{rep}")
        first_op = time.perf_counter()
        setup_s = (first_op - ctx.started_at) - sum(setup_times) + median(setup_times)

        latencies: List[float] = []  # ms, untraced windows
        traced_latencies: List[float] = []
        answers: List[Tuple[int, bytes, bool]] = []
        done_at: List[float] = []
        attempted = failed = 0
        tracer = ctx.tracer
        end = first_op + ctx.seconds
        position = WARMUP_REQUESTS
        while True:
            now = time.perf_counter()
            if now >= end:
                break
            traced = ctx.traced_at(first_op, now)
            tracer.enabled = traced
            index = position % STREAM_LENGTH
            position += 1
            attempted += 1
            began = time.perf_counter()
            try:
                status, payload = tracer.call("http.POST /predict", client.post, stream[index][1])
            except (OSError, http.client.HTTPException):
                failed += 1
                client.reconnect()
                continue
            finished = time.perf_counter()
            if status != 200:
                failed += 1
                continue
            (traced_latencies if traced else latencies).append(1e3 * (finished - began))
            answers.append((index, payload, traced))
            done_at.append(finished)
        tracer.enabled = False
        timed_end = time.perf_counter()

        layer: Dict[str, tuple] = {}
        if ctx.trace:
            layer = stats_layers(ctx, client)
            layer.update(answer_layers(ctx, answers, traced_latencies))
        peak_rss = child.peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        if child is not None:
            child.stop()

    # Every answer against an eager forward of a separately restored copy.
    expected = {
        name: Session().restore(path).predict() for name, path in zip(SERVE_DATASETS, artifacts)
    }
    workers = set()
    for index, payload, _ in answers:
        name, _, nodes = stream[index]
        answer = json.loads(payload)
        check(answer["shard"] == name, f"request for {name} answered by shard {answer['shard']}")
        got = np.asarray(answer["predictions"])
        check(
            np.array_equal(got, expected[name][nodes]),
            f"{name} nodes {nodes.tolist()}: served {got.tolist()}, "
            f"eager forward gives {expected[name][nodes].tolist()}",
        )
        workers.add(answer.get("worker"))
    if ctx.workload == "serve_cluster":
        check(
            len(workers) == CLUSTER_WORKERS,
            f"answers came from workers {sorted(map(str, workers))}, expected {CLUSTER_WORKERS}",
        )

    report = {
        "setup_repeats_s": [round(t, 4) for t in setup_times],
        "requests_ok": len(answers),
        "connections": 1,
        "generator_late_ms": None,  # closed loop: nothing is scheduled
        "client_p50_ms": round(median(latencies), 4),
        "client_p99_ms": round(percentile(latencies, 99), 4),
        "workers_answering": sorted(map(str, workers)) if ctx.workload == "serve_cluster" else None,
    }
    if ctx.trace:
        if ctx.workload == "serve_cluster":
            layer.update(pool_call_layer(ctx, artifacts, stream))
        else:
            layer.update(in_process_layers(ctx, artifacts, stream))
        layer["latency_p99_ms"] = (percentile(latencies, 99), "ms")
        layer["trace.overhead_pct"] = (
            100.0 * (median(traced_latencies) / median(latencies) - 1.0),
            "%",
        )
        return Outcome(attempted, failed, layer, report)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "latency_p50_ms": (median(latencies), "ms"),
        "throughput_per_s": (windowed_rate(done_at, first_op, timed_end), "1/s"),
    }
    return Outcome(attempted, failed, metrics, report)
