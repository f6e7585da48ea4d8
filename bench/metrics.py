"""Metric tables: names, units, better direction, bounds, and for each layer
metric the end-to-end metric it should move and the workloads where it does.

BENCHMARK.json repeats the first three columns (and the bounds); a test keeps
the two in step.  The mapping columns live only here, because BENCHMARK.json
has a fixed set of keys.
"""

from __future__ import annotations

import re

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RULE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

METHODS = ("MCCA", "MvOPLS", "MvLDA", "MvDA", "MvDA_VC", "MvMDA", "MLDA", "GMA",
           "MvDA_CCA")

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("fit_s", "s", "lower", 0.25),
    ("eval_s", "s", "lower", 0.25),
    ("retrieve_s", "s", "lower", 0.25),
    ("deep_epoch_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("linear_acc", "ratio", "higher", 0.2),
    ("knn1_acc", "ratio", "higher", 0.2),
    ("map_mean", "ratio", "higher", 0.15),
    ("deep_objective", "eigval", "higher", 0.1),
)


def _per_method(prefix, unit, moves, where):
    return tuple((f"{prefix}.{m}", unit, "lower", moves, where) for m in METHODS)


# name, unit, better, end-to-end metric it moves, workloads where it does
PER_LAYER = (
    ("data.make_toy_dataset_s", "s", "lower", "setup_s", "all"),
    ("data.load_dataset_s", "s", "lower", "setup_s", "all"),
    ("data.split_dataset_s", "s", "lower", "setup_s", "all"),
    *_per_method("methods.build_s", "s", "fit_s", "most on tall, little on wide"),
    ("methods.build_s.total", "s", "lower", "fit_s", "most on tall, little on wide"),
    ("scatter.pseudo_inverse_coupling_s", "s", "lower", "fit_s", "tall; ~0 on wide"),
    ("scatter.between_class_scatter_s", "s", "lower", "fit_s", "tall; ~0 on wide"),
    *_per_method("gevd.solve_s", "s", "fit_s", "most of it on wide, <1% on tall"),
    ("gevd.solve_s.total", "s", "lower", "fit_s", "most of it on wide, <1% on tall"),
    *_per_method("framework.fit_solved_s", "s", "fit_s", "tall"),
    ("framework.embed_s", "s", "lower", "eval_s", "tall"),
    ("evaluation.train_linear_classifier_s", "s", "lower", "eval_s", "tall"),
    ("evaluation.classify_s", "s", "lower", "eval_s", "tall"),
    ("evaluation.knn1_classify_s", "s", "lower", "eval_s", "tall"),
    ("evaluation.cross_modal_retrieve_s", "s", "lower", "retrieve_s", "tall"),
    ("deep.forward_views_s", "s", "lower", "deep_epoch_s", "tall"),
    ("deep.spectral_loss_s", "s", "lower", "deep_epoch_s", "tall"),
    ("deep.loss_gradient_s", "s", "lower", "deep_epoch_s", "tall"),
    ("deep.backward_s", "s", "lower", "deep_epoch_s", "tall"),
    ("deep.optimizer_step_s", "s", "lower", "deep_epoch_s", "tall"),
    *_per_method("methods.build_peak_mb", "MB", "peak_rss_mb", "tall"),
    ("evaluation.knn1_classify_peak_mb", "MB", "lower", "peak_rss_mb", "tall"),
    ("evaluation.cross_modal_retrieve_peak_mb", "MB", "lower", "peak_rss_mb", "tall"),
    ("deep.loss_gradient_peak_mb", "MB", "lower", "peak_rss_mb", "tall"),
    ("gevd.residual_max", "ratio", "lower", "correct (diagnostic)", "all"),
    ("gevd.b_orth_err_max", "abs", "lower", "correct (diagnostic)", "all"),
    ("gevd.gap_min", "eigval", "higher", "correct (diagnostic)", "all"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced pass", "all"),
    ("trace.overhead_pct", "%", "lower", "none: traced over untraced pass", "all"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
