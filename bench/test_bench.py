"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from checks import B_ORTH_TOL, RESIDUAL_TOL, Ledger, pencil_errors
from metrics import END_TO_END, NAME_RULE, PER_LAYER, UNIT_RULE
from run import ROOT, import_program
from tracing import Span, Tracer, covered_length, instrument, self_times

mv = import_program()

import workload  # noqa: E402  (needs the program on the path)


def ticking_tracer(times):
    it = iter(times)
    return Tracer(clock=lambda: next(it))


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)]) == 5.0
    assert covered_length([(0, 4), (1, 2)]) == 4.0
    assert covered_length([(3, 3), (5, 4)]) == 0.0


def test_self_time_subtracts_children():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [6, 9].
    tr = ticking_tracer([0, 1, 2, 3, 4, 6, 9, 10])
    with tr.span("root", pass_id=7):
        with tr.span("a"):
            with tr.span("c"):
                pass
        with tr.span("b"):
            pass
    own = self_times(tr.spans)
    assert {s.name: own[s.id] for s in tr.spans} == {
        "root": 4.0, "a": 2.0, "c": 1.0, "b": 3.0}
    names = {s.id: s.name for s in tr.spans}
    assert [names.get(s.parent) for s in tr.spans] == [None, "root", "a", "root"]
    assert all(s.attrs["pass_id"] == 7 for s in tr.spans)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", None, 0.0, 10.0), Span(1, "x", 0, 1.0, 5.0),
             Span(2, "y", 0, 3.0, 7.0)]
    assert self_times(spans) == {0: 4.0, 1: 4.0, 2: 4.0}


def test_metric_names_follow_the_rule_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in listed] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RULE.fullmatch(name), name
    for m in listed:
        assert UNIT_RULE.fullmatch(m["unit"]), m
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(row) for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row[:3]) for row in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_name_rule_rejects_bad_names():
    for bad in ("", "_lead", "has space", "x" * 65, "a/b", "é"):
        assert not NAME_RULE.fullmatch(bad), bad


@pytest.fixture(scope="module")
def fitted():
    ds = mv.make_toy_dataset(classes=10, views=3, samples=80, dims=(6, 5, 7), seed=3)
    session = workload.Session(mv, workload.WORKLOADS["tall"], 3, Path("."))
    session.train = ds
    model = mv.fit_method(mv.MethodId("MvOPLS", k=workload.K), ds)
    return session, model


def test_exact_solution_passes_the_pencil_checks(fitted):
    session, model = fitted
    out = workload.Outcome(models={"MvOPLS": model})
    worst = session.check_solutions(out)
    assert session.ledger.failed == 0
    assert worst["residual"] <= RESIDUAL_TOL and worst["b_orth"] <= B_ORTH_TOL


def test_rescaled_column_counts_as_a_failure(fitted):
    session, model = fitted
    session.ledger = Ledger()
    P = np.vstack(model.projections)
    P[:, 2] *= 1.001
    offsets = np.cumsum((0,) + model.dims)
    bent = dataclasses.replace(model, projections=tuple(
        P[offsets[s]:offsets[s + 1]] for s in range(len(model.dims))))
    session.check_solutions(workload.Outcome(models={"MvOPLS": bent}))
    assert session.ledger.failed == 1
    assert "P^T B P" in session.ledger.failures[0]
    problem = mv.build(mv.MethodId("MvOPLS", k=workload.K), session.train)
    resid, orth = pencil_errors(problem, P, model.eigenvalues)
    assert resid <= RESIDUAL_TOL and orth > B_ORTH_TOL


def test_ledger_records_exceptions_without_raising():
    ledger = Ledger()
    assert ledger.op("boom", lambda: 1 / 0) is None
    assert ledger.op("fine", lambda x: x + 1, 1) == 2
    ledger.check("ok", True)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert ledger.failures[0].startswith("boom: ZeroDivisionError")


def test_instrument_spans_calls_between_modules_and_restores():
    tr = Tracer()
    targets = {("mvsubspace.gevd", "solve"): ("gevd.solve", False, workload._gap),
               ("mvsubspace.methods", "gone"): ("methods.gone", False, None)}
    original = mv.methods.solve
    ds = mv.make_toy_dataset(classes=3, views=2, samples=30, seed=1)
    with instrument(tr, targets):
        assert mv.methods.solve is not original
        mv.fit_method(mv.MethodId("MvOPLS", k=2), ds)
    assert mv.methods.solve is original and mv.gevd.solve is original
    assert [s.name for s in tr.spans] == ["gevd.solve"]
    assert tr.spans[0].attrs["gap"] > 0


def test_high_percentile_needs_ten_samples_beyond():
    assert workload.high_percentile(list(range(39))) is None
    assert workload.high_percentile(list(range(40)))[0] == 75
    assert workload.high_percentile(list(range(1000)))[0] == 99
