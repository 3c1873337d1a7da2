"""``sweep``: the paper's pipeline as a researcher runs it.

Set-up generates the 16 registered datasets.  One timed *round* then runs
``GraphHandle.amud()`` on every dataset and two ``Session.experiment``
table sweeps, serially (``max_workers=1``): a Table III dataset under
``paper-undirected`` and a Table IV dataset under ``paper-directed``, each
over ADPA, an undirected baseline (GCN) and a directed baseline (DirGNN),
two seeds, a fixed epoch count and early stopping off.  AMUD is called
explicitly because ``resolve_view`` takes the regime from the synthetic
datasets' metadata, so a table sweep alone never runs it.  Rounds repeat
until the run's seconds are used; every round is the same work.

The seed picks the training seeds; the datasets are the registered
stand-ins (dataset seed 0), so the work per round does not depend on it.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

from common import Context, Outcome, check, median, self_peak_rss_mb

#: the paper's grouping (Tables III, IV and V), written here rather than
#: read from the program's dataset registry.
PAPER_REGIME: Dict[str, str] = {
    # Table III: homophilous, AMUndirected
    "coraml": "undirected",
    "citeseer": "undirected",
    "pubmed": "undirected",
    "tolokers": "undirected",
    "wikics": "undirected",
    "amazon-computers": "undirected",
    # Table IV: heterophilous, AMDirected
    "texas": "directed",
    "cornell": "directed",
    "wisconsin": "directed",
    "chameleon": "directed",
    "squirrel": "directed",
    "roman-empire": "directed",
    # Table V: the abnormal cases, where classic homophily and AMUD disagree
    "actor": "undirected",
    "amazon-rating": "undirected",
    "ogbn-arxiv": "undirected",
    "genius": "directed",
}

TABLE3_DATASET = "coraml"
TABLE4_DATASET = "chameleon"
MODELS = ("ADPA", "GCN", "DirGNN")
ADPA_KWARGS = {"hidden": 64, "num_steps": 3}
EPOCHS = 6
SEEDS_PER_CELL = 2
SETUP_REPEATS = 3
FITS_PER_ROUND = 2 * len(MODELS) * SEEDS_PER_CELL


def _majority_rate(graph) -> float:
    labels = graph.labels[graph.test_mask]
    return float(np.bincount(labels).max() / labels.size)


# ---------------------------------------------------------------------- #
# Checks made apart from the program
# ---------------------------------------------------------------------- #
def _scipy_operator(adjacency: sp.csr_matrix, word: str) -> sp.csr_matrix:
    """One DP operator from the raw adjacency with plain scipy: the
    reachability pattern of the word, diagonal removed for composites,
    plus self-loops, row-normalised."""
    n = adjacency.shape[0]
    factors = {"A": adjacency, "T": adjacency.T.tocsr()}
    letters = word.replace("At", "T")
    product = factors[letters[0]]
    for letter in letters[1:]:
        product = product @ factors[letter]
    pattern = (abs(product) > 0).astype(np.float64).tocsr()
    if len(letters) > 1:
        pattern = (pattern - sp.diags(pattern.diagonal())).tocsr()
        pattern.eliminate_zeros()
    pattern = (pattern + sp.identity(n, format="csr")).tocsr()
    sums = np.asarray(pattern.sum(axis=1)).ravel()
    inverse = np.zeros_like(sums)
    inverse[sums > 0] = 1.0 / sums[sums > 0]
    return (sp.diags(inverse) @ pattern).tocsr()


def check_operators_and_propagation(graph, undirected: bool) -> None:
    from repro.adpa.propagation import build_dp_operators, propagate_features
    from repro.graph.transforms import to_undirected

    raw = graph.adjacency.tocsr()
    if undirected:
        raw = ((raw + raw.T) != 0).astype(np.float64).tocsr()
        view = to_undirected(graph)
        check(abs(view.adjacency - raw).max() == 0, f"{graph.name}: U- view is not A + Aᵀ")
    else:
        view = graph
    operators = build_dp_operators(view)
    for name, matrix in operators.items():
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        nonempty = np.diff(matrix.indptr) > 0
        worst = float(np.abs(sums[nonempty] - 1.0).max())
        check(worst < 1e-12, f"{graph.name}: operator {name} row sums off by {worst}")
    if undirected:
        check(abs(operators["A"] - operators["At"]).max() == 0, f"{graph.name}: U- view has A != Aᵀ")
        for name in ("AtAt", "AAt", "AtA"):
            check(
                abs(operators[name] - operators["AA"]).max() == 0,
                f"{graph.name}: U- view has {name} != AA",
            )
    result = propagate_features(view, num_steps=1)
    for name in result.operator_names:
        expected = _scipy_operator(raw, name) @ graph.features
        error = float(np.abs(result.steps[0][name] - expected).max())
        check(error <= 1e-10, f"{graph.name}: one step under {name} is off by {error}")


def check_round(decisions, reports, config, majority) -> None:
    for name, regime in PAPER_REGIME.items():
        check(
            decisions[name].modeling == regime,
            f"AMUD put {name} in the {decisions[name].modeling} regime; the paper has {regime}",
        )
    for report in reports:
        check(len(report.cells) == len(MODELS), f"sweep returned {len(report.cells)} cells")
        for cell in report.cells:
            label = f"{cell.model} on {cell.dataset}"
            check(cell.seeds == config.seeds, f"{label}: ran seeds {cell.seeds}")
            for run in cell.runs:
                check(
                    run.epochs_run == EPOCHS,
                    f"{label} seed {run.seed}: ran {run.epochs_run} epochs, configured {EPOCHS}",
                )
            mean = sum(run.test_accuracy for run in cell.runs) / len(cell.runs)
            check(abs(cell.test_mean - mean) < 1e-12, f"{label}: mean {cell.test_mean} != {mean}")
            check(
                cell.test_mean > majority[cell.dataset],
                f"{label}: accuracy {cell.test_mean:.4f} does not beat the "
                f"majority class ({majority[cell.dataset]:.4f})",
            )


# ---------------------------------------------------------------------- #
# Spans (traced rounds only)
# ---------------------------------------------------------------------- #
def install_spans(tracer) -> None:
    import repro.adpa.model as adpa_model
    import repro.api.experiment as api_experiment
    import repro.api.session as api_session
    from repro.adpa.model import ADPA
    from repro.api import GraphHandle, Session
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.training.trainer import Trainer

    tracer.wrap(api_session, "load_dataset", "datasets.load_dataset")
    tracer.wrap(api_experiment, "load_dataset", "datasets.load_dataset")
    tracer.wrap(GraphHandle, "amud", "amud.GraphHandle.amud")
    tracer.wrap(
        adpa_model,
        "build_dp_operators",
        "graph.build_dp_operators",
        after=lambda ops: {"nnz": int(sum(matrix.nnz for matrix in ops.values()))},
    )
    tracer.wrap(adpa_model, "propagate_features", "adpa.propagate_features")
    tracer.wrap(
        Trainer,
        "fit",
        "training.Trainer.fit",
        attrs=lambda self, model, graph: {"model": type(model).__name__},
        after=lambda result: {
            "epochs": result.epochs_run,
            "fit_s": result.fit_seconds,
            "preprocess_s": result.preprocess_seconds,
        },
    )
    tracer.wrap(ADPA, "forward", "nn.ADPA.forward")
    tracer.wrap(Tensor, "backward", "nn.Tensor.backward")
    tracer.wrap(Adam, "step", "nn.Adam.step")
    tracer.wrap(Session, "experiment", "api.Session.experiment")


def layer_metrics(tracer, traced_rounds: int) -> Dict[str, tuple]:
    fits = tracer.closed("training.Trainer.fit")

    def in_adpa_fit(span) -> bool:
        fit = tracer.ancestor(span, "training.Trainer.fit")
        return fit is not None and fit[4]["model"] == "ADPA"

    def per_epoch_ms(adpa: bool) -> float:
        return median(
            [1e3 * s[4]["fit_s"] / s[4]["epochs"] for s in fits if (s[4]["model"] == "ADPA") == adpa]
        )

    overheads = []
    for span in tracer.spans:
        if span[0] == "api.Session.experiment" and span[2] is not None:
            fitted = sum(
                1e3 * (fit[2] - fit[1])
                for fit in fits
                if tracer.ancestor(fit, "api.Session.experiment") is span
            )
            overheads.append(1e3 * (span[2] - span[1]) - fitted)
    operator_spans = tracer.closed("graph.build_dp_operators")
    return {
        "datasets.load_ms": (median(tracer.durations_ms("datasets.load_dataset")), "ms"),
        "amud.decide_ms": (median(tracer.durations_ms("amud.GraphHandle.amud")), "ms"),
        "graph.dp_operators_ms": (median(tracer.durations_ms("graph.build_dp_operators")), "ms"),
        "graph.dp_operators_nnz": (median([s[4]["nnz"] for s in operator_spans]), "count"),
        "adpa.propagate_ms": (median(tracer.durations_ms("adpa.propagate_features")), "ms"),
        "training.preprocess_ms": (
            1e3 * sum(s[4]["preprocess_s"] for s in fits) / traced_rounds,
            "ms",
        ),
        "training.epoch_ms.ADPA": (per_epoch_ms(True), "ms"),
        "training.epoch_ms.baselines": (per_epoch_ms(False), "ms"),
        "training.epochs": (sum(s[4]["epochs"] for s in fits) / traced_rounds, "count"),
        "nn.forward_ms.ADPA": (median(tracer.durations_ms("nn.ADPA.forward", in_adpa_fit)), "ms"),
        "nn.backward_ms.ADPA": (median(tracer.durations_ms("nn.Tensor.backward", in_adpa_fit)), "ms"),
        "nn.step_ms.ADPA": (median(tracer.durations_ms("nn.Adam.step", in_adpa_fit)), "ms"),
        "api.overhead_ms": (median(overheads), "ms"),
    }


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
def run(ctx: Context) -> Outcome:
    from repro.api import ExperimentConfig, Session, SweepSpec, TrainConfig
    from repro.datasets import list_datasets

    session = Session()
    setup_times: List[float] = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        handles = {name: session.load(name) for name in list_datasets()}
        setup_times.append(time.perf_counter() - began)
    check(
        sorted(handles) == sorted(PAPER_REGIME),
        f"registered datasets {sorted(handles)} differ from the paper's 16",
    )
    majority = {
        name: _majority_rate(handles[name].graph) for name in (TABLE3_DATASET, TABLE4_DATASET)
    }
    config = ExperimentConfig(
        seeds=tuple(SEEDS_PER_CELL * ctx.seed + k for k in range(SEEDS_PER_CELL)),
        train=TrainConfig(epochs=EPOCHS, patience=EPOCHS),
        max_workers=1,
    )
    specs = [
        SweepSpec(
            models=MODELS,
            datasets=(dataset,),
            view=view,
            config=config,
            model_kwargs={"ADPA": ADPA_KWARGS},
        )
        for dataset, view in (
            (TABLE3_DATASET, "paper-undirected"),
            (TABLE4_DATASET, "paper-directed"),
        )
    ]
    if ctx.trace:
        install_spans(ctx.tracer)

    attempted = failed = 0
    rounds: List[dict] = []

    def one_round(traced: bool) -> None:
        nonlocal attempted, failed
        ctx.tracer.enabled = traced
        began = time.perf_counter()
        decisions, reports, errors = {}, [], 0
        for name, handle in handles.items():
            try:
                decisions[name] = handle.amud().decision
            except Exception:
                traceback.print_exc()
                errors += 1
        for spec in specs:
            try:
                reports.append(session.experiment(spec))
            except Exception:
                traceback.print_exc()
                errors += len(MODELS) * SEEDS_PER_CELL
        elapsed = time.perf_counter() - began
        ctx.tracer.enabled = False
        attempted += len(handles) + FITS_PER_ROUND
        failed += errors
        if not errors:
            check_round(decisions, reports, config, majority)
        rounds.append(
            {
                "seconds": elapsed,
                "traced": traced,
                "ok": not errors,
                "accuracy": {
                    f"{cell.model}/{cell.dataset}": round(cell.test_mean, 4)
                    for report in reports
                    for cell in report.cells
                },
            }
        )

    first_op = time.perf_counter()
    setup_s = (first_op - ctx.started_at) - sum(setup_times) + median(setup_times)
    # A traced run alternates untraced and traced rounds, untraced first.
    while True:
        one_round(traced=ctx.trace and len(rounds) % 2 == 1)
        if time.perf_counter() >= first_op + ctx.seconds and (not ctx.trace or len(rounds) >= 2):
            break
    timed_s = sum(r["seconds"] for r in rounds)

    check_operators_and_propagation(handles[TABLE3_DATASET].graph, undirected=True)
    check_operators_and_propagation(handles[TABLE4_DATASET].graph, undirected=False)

    plain = [r["seconds"] for r in rounds if not r["traced"]]
    report = {
        "setup_repeats_s": [round(t, 4) for t in setup_times],
        "rounds": [{**r, "seconds": round(r["seconds"], 4)} for r in rounds],
        "training_seeds": list(config.seeds),
        "generator_late_ms": None,  # closed loop: nothing is scheduled
    }
    if ctx.trace:
        traced = [r["seconds"] for r in rounds if r["traced"]]
        metrics = layer_metrics(ctx.tracer, len(traced))
        metrics["trace.overhead_pct"] = (100.0 * (median(traced) / median(plain) - 1.0), "%")
        return Outcome(attempted, failed, metrics, report)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "latency_p50_ms": (1e3 * median(plain), "ms"),
        "throughput_per_s": (FITS_PER_ROUND * len(rounds) / timed_s, "1/s"),
    }
    return Outcome(attempted, failed, metrics, report)
