"""The two workloads and the closed-loop session that runs one of them.

Every workload is the session of a researcher comparing methods on one
dataset shape: fit the nine catalog methods, train the deep variant (per-view
MLPs on MvOPLS), evaluate every model (linear and 1-NN classifiers) and run
cross-modal retrieval between views 1 and 2 of the test set.  One caller runs
the steps in order, each waiting for the previous one (a closed loop with one
client).  The shape decides which layer the time goes to:

  tall  n >> d: the n x n label kernels, the representer coupling, 1-NN,
        retrieval and the per-epoch rebuild of the deep pencil do the work
        and the eigensolve does almost none.
  wide  d >> n: the dense d x d eigensolve dominates and the kernels are
        tiny; the control where kernel and evaluation changes gain nothing.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from checks import B_ORTH_TOL, RESIDUAL_TOL, Ledger, pencil_errors
from metrics import END_TO_END, METHODS, PER_LAYER, UNITS
from tracing import Tracer, instrument, self_times

CLASSES = 10
VIEWS = 3
K = 9
HIDDEN = (64,)
OUT_DIM = 16
LEARNING_RATE = 1e-2
SETUP_REPS = 5
MIN_PASSES = 3
MIN_OP_SECONDS = 0.1
MAX_CALLS = 8
MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Workload:
    dim: int  # features per view
    n_train: int
    n_test: int
    methods: tuple
    deep_epochs: int

    @property
    def shape(self):
        return {"views": VIEWS, "dim_per_view": self.dim, "classes": CLASSES,
                "n_train": self.n_train, "n_test": self.n_test, "k": K,
                "methods": list(self.methods), "deep_epochs": self.deep_epochs,
                "mlp_hidden": list(HIDDEN), "mlp_out_dim": OUT_DIM,
                "learning_rate": LEARNING_RATE}


WORKLOADS = {
    "tall": Workload(dim=50, n_train=1500, n_test=400, methods=METHODS,
                     deep_epochs=12),
    "wide": Workload(dim=250, n_train=250, n_test=500, methods=METHODS,
                     deep_epochs=40),
}

DEEP_METHOD = "MvOPLS"
DEEP_LABEL = "deep"


def _gap(solution):
    return {"gap": float(solution.spectrum_gap)}


# Calls made inside the program, spanned only in the traced run.
INNER_TARGETS = {
    ("mvsubspace.methods", "build"): ("methods.build", True, None),
    ("mvsubspace.scatter", "pseudo_inverse_coupling"):
        ("scatter.pseudo_inverse_coupling", False, None),
    ("mvsubspace.scatter", "between_class_scatter"):
        ("scatter.between_class_scatter", False, None),
    ("mvsubspace.gevd", "solve"): ("gevd.solve", False, _gap),
    ("mvsubspace.framework", "fit_solved"): ("framework.fit_solved", False, None),
}


@dataclass
class Outcome:
    """What one pass computed, kept to check and compare passes."""

    models: dict = field(default_factory=dict)  # label -> SubspaceModel
    linear: dict = field(default_factory=dict)  # label -> accuracy
    knn1: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    history: np.ndarray | None = None
    nets: list | None = None
    features: tuple | None = None  # deep features of (train, test)


class Session:
    def __init__(self, mv, workload, seed, workdir, tracer=None, ledger=None):
        self.mv = mv
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer or Tracer()
        self.ledger = ledger or Ledger()
        self.train = None
        self.test = None
        self.setup_reps = 0
        self.deep_method = mv.MethodId(DEEP_METHOD, k=K)
        self.mlp = mv.MlpConfig(hidden=HIDDEN, out_dim=OUT_DIM, seed=seed)
        self.trainer = mv.TrainerConfig(epochs=workload.deep_epochs,
                                        learning_rate=LEARNING_RATE)

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Generate, save (untimed), load and split the data once more.

        The first split that succeeds is the data every pass uses; later
        repetitions only add set-up samples.
        """
        rep = self.setup_reps
        self.setup_reps += 1
        with self.tracer.span("setup", stage="setup", rep=rep):
            split = self.ledger.op(f"setup rep {rep}", self._setup_once, rep)
        if split is not None and self.train is None:
            self.train, self.test = split

    def _setup_once(self, rep):
        mv, wl = self.mv, self.wl
        call = self.tracer.call
        ds = call("data.make_toy_dataset", mv.make_toy_dataset, classes=CLASSES,
                  views=VIEWS, samples=wl.n_train + wl.n_test, dims=(wl.dim,) * VIEWS,
                  seed=self.seed)
        where = self.workdir / f"rep{rep}"
        mv.save_dataset(ds, where)
        loaded = call("data.load_dataset", mv.load_dataset, where)
        shutil.rmtree(where)
        self.ledger.check(
            f"load_dataset returns the generated data (rep {rep})",
            all(np.array_equal(a, b) for a, b in zip(ds.views, loaded.views))
            and len(ds.views) == len(loaded.views)
            and np.array_equal(ds.labels, loaded.labels),
        )
        frac = wl.n_train / (wl.n_train + wl.n_test)
        train, test = call("data.split_dataset", mv.split_dataset, loaded, frac,
                           seed=self.seed)
        self.ledger.check(
            f"split sizes (rep {rep})",
            (train.n_samples, test.n_samples) == (wl.n_train, wl.n_test),
            f"got {train.n_samples}/{test.n_samples}",
        )
        return train, test

    # -- one closed-loop pass ----------------------------------------------

    def _op(self, stage, label, fn, *args, **kwargs):
        """One operation, each call in its own span.

        The call is repeated while the calls so far took under MIN_OP_SECONDS
        (at most MAX_CALLS times), so cheap operations collect more timing
        samples.  Returns the first call's result.
        """
        first, spent = None, 0.0
        for call in range(MAX_CALLS):
            with self.tracer.span(stage, stage=stage, method=label) as rec:
                res = self.ledger.op(f"{stage} {label}", fn, *args, **kwargs)
            if call == 0:
                first = res
            spent += rec.duration
            if res is None or spent >= MIN_OP_SECONDS:
                break
        return first

    def run_pass(self, pass_id):
        mv, out = self.mv, Outcome()
        with self.tracer.span("pass", pass_id=pass_id):
            for name in self.wl.methods:
                model = self._op("fit", name, mv.fit_method, mv.MethodId(name, k=K),
                                 self.train)
                if model is not None:
                    out.models[name] = model
            trained = self._op("deep", DEEP_LABEL, mv.train, self.train,
                               self.deep_method, self.mlp, self.trainer)
            if trained is not None:
                out.nets, out.models[DEEP_LABEL], out.history = trained
                self._check_history(out.history, pass_id)
            embedded = {}
            for label, model in out.models.items():
                res = self._op("evaluate", label, self._evaluate, label, model, out)
                if res is not None:
                    embedded[label], out.linear[label], out.knn1[label] = res
            for label, per_view in embedded.items():
                res = self._op("retrieve", label, self.tracer.call,
                               "evaluation.cross_modal_retrieve",
                               mv.cross_modal_retrieve, per_view[0], self.test.labels,
                               per_view[1], self.test.labels, memory=True)
                if res is not None:
                    out.maps[label] = res.map_mean
                    self.ledger.check(f"mAP of {label} in [0, 1] (pass {pass_id})",
                                      0.0 <= res.map_mean <= 1.0, f"{res.map_mean}")
        return out

    def _evaluate(self, label, model, out):
        mv, call = self.mv, self.tracer.call
        train, test = self.train, self.test
        if label == DEEP_LABEL:
            act = self.mlp.activation
            f_tr = call("deep.forward_views", mv.deep.forward_views, out.nets,
                        list(train.views), act)
            f_te = call("deep.forward_views", mv.deep.forward_views, out.nets,
                        list(test.views), act)
            train = mv.MultiViewDataset(tuple(f_tr), train.labels)
            test = mv.MultiViewDataset(tuple(f_te), test.labels)
            out.features = (train, test)
        _, z_tr = call("framework.embed", mv.embed, model, train)
        per_view, z_te = call("framework.embed", mv.embed, model, test)
        clf = call("evaluation.train_linear_classifier", mv.train_linear_classifier,
                   z_tr, train.labels)
        linear = mv.accuracy(call("evaluation.classify", mv.classify, clf, z_te),
                             test.labels)
        knn1 = mv.accuracy(call("evaluation.knn1_classify", mv.knn1_classify, z_tr,
                                train.labels, z_te, memory=True), test.labels)
        return per_view, linear, knn1

    def _check_history(self, history, pass_id):
        self.ledger.check(
            f"deep loss finite and lower at the last epoch (pass {pass_id})",
            bool(np.all(np.isfinite(history))) and history[-1] < history[0],
            f"first {history[0]}, last {history[-1]}",
        )

    # -- traced-run extras --------------------------------------------------

    def probe_deep(self, pass_id, nets):
        """Time one epoch's public pieces on the trained networks."""
        with self.tracer.span("probes", pass_id=pass_id):
            self._op("probe", DEEP_LABEL, self._probe_once, nets)

    def _probe_once(self, nets):
        mv, call, act = self.mv, self.tracer.call, self.mlp.activation
        feats = call("deep.forward_views", mv.deep.forward_views, nets,
                     list(self.train.views), act)
        call("deep.spectral_loss", mv.spectral_loss, feats, self.train.labels,
             self.deep_method)
        return call("deep.loss_gradient", mv.deep.loss_gradient, nets, self.train,
                    self.trainer, method=self.deep_method, activation=act,
                    memory=True)

    # -- checks outside the timed passes --------------------------------------

    def check_solutions(self, out):
        """Rebuild each model's pencil and check criterion 04 on its P."""
        mv = self.mv
        worst = {"residual": 0.0, "b_orth": 0.0}
        for label, model in out.models.items():
            if label == DEEP_LABEL:
                if out.features is None:
                    continue
                method, data = self.deep_method, out.features[0]
            else:
                method, data = mv.MethodId(label, k=K), self.train
            problem = self.ledger.op(f"rebuild {label}", mv.build, method, data)
            if problem is None:
                continue
            resid, orth = pencil_errors(problem, np.vstack(model.projections),
                                        model.eigenvalues)
            worst["residual"] = max(worst["residual"], resid)
            worst["b_orth"] = max(worst["b_orth"], orth)
            self.ledger.check(f"{label} eigen-equation residual <= {RESIDUAL_TOL}",
                              resid <= RESIDUAL_TOL, f"({resid:.3e})")
            self.ledger.check(f"{label} |P^T B P - I| <= {B_ORTH_TOL}",
                              orth <= B_ORTH_TOL, f"({orth:.3e})")
        return worst

    def check_repeat(self, ref, out, pass_id):
        """Every pass must give the first pass's answers."""
        same = (
            ref.models.keys() == out.models.keys()
            and all(np.allclose(ref.models[m].eigenvalues, out.models[m].eigenvalues,
                                rtol=1e-12, atol=0.0) for m in ref.models)
            and ref.linear == out.linear and ref.knn1 == out.knn1
            and ref.maps == out.maps
        )
        self.ledger.check(f"pass {pass_id} reproduces the first pass's results", same)


# -- running and reducing -----------------------------------------------------
#
# Every timing except set-up is the fastest call of each operation (one method
# or model), summed over operations.  The machine this benchmark was tuned on
# (a 2-vCPU Xeon VM) runs in speed states 1.4-1.8x apart that switch every few
# seconds, so a run's median lands in whichever state held most of its
# window.  Over the same runs the spread of the median was 13-21% of its
# value against 5-15% for the fastest call.  Per-pass medians and call counts
# are kept in the detail line.


def high_percentile(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def summary(values):
    out = {"median": statistics.median(values), "n": len(values)}
    hp = high_percentile(values)
    if hp is not None:
        out[f"p{hp[0]}"] = hp[1]
    return out


def stage_calls(spans, stage, ids=None, names=None):
    """Durations of the calls of one stage, per operation.

    Returns {operation: [one value per call of ``stage`` in passes ``ids``]}
    (all passes when ``ids`` is None).  The value is the call's own duration,
    or with ``names`` the summed duration of the spans so named inside it.
    """
    calls = {s.id: s for s in spans if s.name == stage
             and (ids is None or s.attrs.get("pass_id") in ids)}
    if names is None:
        sums = {sid: s.duration for sid, s in calls.items()}
    else:
        sums = dict.fromkeys(calls, 0.0)
        for s in spans:
            if s.name in names:
                p = s.parent
                while p is not None and p not in calls:
                    p = spans[p].parent
                if p is not None:
                    sums[p] += s.duration
    out = {}
    for sid, total in sums.items():
        out.setdefault(calls[sid].attrs.get("method"), []).append(total)
    return out


def fastest_total(calls):
    """Sum over operations of each one's fastest call."""
    return sum(min(v) for v in calls.values())


def per_pass(spans, ids, name):
    """Summed duration of the spans called ``name`` in each pass of ``ids``."""
    sums = dict.fromkeys(ids, 0.0)
    for s in spans:
        if s.name == name and s.attrs.get("pass_id") in sums:
            sums[s.attrs["pass_id"]] += s.duration
    return list(sums.values())


def _mean(values):
    return float(np.mean(list(values))) if values else None


SETUP_LAYERS = ("data.make_toy_dataset", "data.load_dataset", "data.split_dataset")
STAGES = {"fit_s": "fit", "eval_s": "evaluate", "retrieve_s": "retrieve",
          "deep_epoch_s": "deep"}


def run(mv, workload, seed, seconds, traced, workdir):
    """Run one workload; return (result dict, detail dict, spans).

    Passes repeat until ``seconds`` have passed and at least MIN_PASSES
    untraced passes ran; a set-up repetition precedes each pass after the
    first.  In a traced run every second pass is traced.  The first pass's
    answers are checked after the loop and every later pass must reproduce
    them.
    """
    tracer = Tracer()
    ledger = Ledger()
    session = Session(mv, workload, seed, workdir, tracer, ledger)
    session.setup()
    if session.train is None:
        raise RuntimeError(f"set-up failed: {ledger.failures}")

    plain, traced_ids = [], []
    ref = None
    deadline = time.perf_counter() + seconds
    pass_id = 0
    while True:
        pass_id += 1
        if pass_id > 1:
            session.setup()
        if traced and pass_id % 2 == 0:
            tracemalloc.start()
            with instrument(tracer, INNER_TARGETS):
                out = session.run_pass(pass_id)
                if out.nets is not None:
                    session.probe_deep(pass_id, out.nets)
            tracemalloc.stop()
            traced_ids.append(pass_id)
        else:
            out = session.run_pass(pass_id)
            plain.append(pass_id)
        if ref is None:
            ref = out
        else:
            session.check_repeat(ref, out, pass_id)
        enough = len(plain) >= MIN_PASSES and (not traced or len(traced_ids) >= 2)
        if enough and time.perf_counter() >= deadline:
            break
    while session.setup_reps < SETUP_REPS:
        session.setup()
    worst = session.check_solutions(ref)

    spans = tracer.spans
    epochs = workload.deep_epochs
    setup = stage_calls(spans, "setup", names=SETUP_LAYERS)[None]
    values = {metric: fastest_total(stage_calls(spans, stage, plain))
              for metric, stage in STAGES.items()}
    values["deep_epoch_s"] /= epochs
    values.update({
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "linear_acc": _mean(ref.linear.values()),
        "knn1_acc": _mean(ref.knn1.values()),
        "map_mean": _mean(ref.maps.values()),
        "deep_objective": None if ref.history is None else -float(ref.history[-1]),
    })
    if traced:
        values.update(layer_values(spans, traced_ids, plain, epochs, worst))
        names = [m[0] for m in PER_LAYER]
    else:
        names = [m[0] for m in END_TO_END]
    metrics = {n: {"value": values.get(n), "unit": UNITS[n]} for n in names}
    result = {
        "correct": ledger.failed == 0 and all(v["value"] is not None
                                              for v in metrics.values()),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    samples = {metric: per_pass(spans, plain, stage)
               for metric, stage in STAGES.items()}
    samples["deep_epoch_s"] = [t / epochs for t in samples["deep_epoch_s"]]
    samples["pass_s"] = per_pass(spans, plain, "pass")
    samples["setup_s"] = setup
    detail = {
        "per_pass": {n: summary(v) for n, v in samples.items() if v},
        "calls": {f"{stage}/{op}": len(v) for stage in STAGES.values()
                  for op, v in stage_calls(spans, stage, plain).items()},
        "per_model": {"linear_acc": ref.linear, "knn1_acc": ref.knn1,
                      "map_mean": ref.maps},
        "failures": ledger.failures,
    }
    if traced:
        detail["self_time_s"] = self_time_table(spans, traced_ids)
        detail["layer_map"] = {name: {"moves": moves, "workloads": where}
                               for name, _, _, moves, where in PER_LAYER}
    return result, detail, spans


def layer_values(spans, traced_ids, plain_ids, epochs, worst):
    """Per-layer metrics from the traced passes, by the same fastest-call rule."""
    def inside(stage, name, ids=traced_ids):
        return stage_calls(spans, stage, ids, (name,))

    def fastest(stage, name):
        return min(inside(stage, name)[DEEP_LABEL], default=0.0)

    def peak(name, method=None):
        peaks = [s.peak_bytes for s in spans if s.name == name
                 and s.peak_bytes is not None
                 and method in (None, s.attrs.get("method"))]
        return max(peaks, default=0) / MB

    out = {f"{n}_s": min(inside("setup", n, None)[None]) for n in SETUP_LAYERS}
    for layer in ("methods.build", "gevd.solve", "framework.fit_solved"):
        calls = inside("fit", layer)
        for m in METHODS:
            out[f"{layer}_s.{m}"] = min(calls.get(m, [0.0]))
        out[f"{layer}_s.total"] = sum(out[f"{layer}_s.{m}"] for m in METHODS)
    for m in METHODS:
        out[f"methods.build_peak_mb.{m}"] = peak("methods.build", m)
    for name in ("scatter.pseudo_inverse_coupling", "scatter.between_class_scatter"):
        out[f"{name}_s"] = fastest_total(inside("fit", name))
    for name in ("framework.embed", "evaluation.train_linear_classifier",
                 "evaluation.classify", "evaluation.knn1_classify"):
        out[f"{name}_s"] = fastest_total(inside("evaluate", name))
    out["evaluation.cross_modal_retrieve_s"] = fastest_total(
        inside("retrieve", "evaluation.cross_modal_retrieve"))
    for name in ("evaluation.knn1_classify", "evaluation.cross_modal_retrieve",
                 "deep.loss_gradient"):
        out[f"{name}_peak_mb"] = peak(name)

    fwd = fastest("probe", "deep.forward_views")
    loss = fastest("probe", "deep.spectral_loss")
    grad = fastest("probe", "deep.loss_gradient")
    epoch = min(stage_calls(spans, "deep", traced_ids)[DEEP_LABEL]) / epochs
    out.update({
        "deep.forward_views_s": fwd,
        "deep.spectral_loss_s": loss,
        "deep.loss_gradient_s": grad,
        "deep.backward_s": grad - loss - fwd,
        "deep.optimizer_step_s": epoch - grad,
    })

    gaps = [s.attrs["gap"] for s in spans if s.name == "gevd.solve"
            and s.attrs.get("stage") == "fit" and "gap" in s.attrs]
    out["gevd.residual_max"] = worst["residual"]
    out["gevd.b_orth_err_max"] = worst["b_orth"]
    out["gevd.gap_min"] = min(gaps, default=None)

    def e2e(ids):
        return sum(fastest_total(stage_calls(spans, st, ids)) for st in STAGES.values())

    plain, traced = e2e(plain_ids), e2e(traced_ids)
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return out


def self_time_table(spans, traced_ids):
    """Median over traced passes of each span name's summed self time."""
    own = self_times(spans)
    table = {}
    for s in spans:
        p = s.attrs.get("pass_id")
        if p in traced_ids and s.name != "pass":
            per_pass_sums = table.setdefault(s.name, dict.fromkeys(traced_ids, 0.0))
            per_pass_sums[p] += own[s.id]
    return {name: statistics.median(v.values()) for name, v in sorted(table.items())}
