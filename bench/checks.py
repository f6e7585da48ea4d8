"""Correctness checks, run outside the timed regions, and the failure ledger."""

from __future__ import annotations

import traceback

import numpy as np

# Criterion 04 of the acceptance tests: same formulas, same tolerances.
RESIDUAL_TOL = 1e-7
B_ORTH_TOL = 1e-8


def pencil_errors(problem, P, eigenvalues):
    """(eigen-equation residual, B-orthonormality error) of P on a pencil.

    residual = max|A P - B P diag(lambda)| / max(1, max|A|)
    b_orth   = max|P^T B P - I_k|
    """
    A = problem.objective
    B = problem.constraint
    resid = np.abs(A @ P - B @ P @ np.diag(eigenvalues)).max() / max(
        1.0, np.abs(A).max()
    )
    orth = np.abs(P.T @ B @ P - np.eye(P.shape[1])).max()
    return float(resid), float(orth)


class Ledger:
    """Counts attempted operations and checks, and remembers each failure.

    A failure never aborts the run: ``op`` swallows the exception after
    recording it and returns None.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # the run must go on and report it
            self.failures.append(
                f"{label}: {type(err).__name__}: {err}\n{traceback.format_exc(limit=3)}"
            )
            return None

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: check failed {detail}".rstrip())
        return ok

    @property
    def failed(self):
        return len(self.failures)
