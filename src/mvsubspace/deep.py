"""Deep extension: per-view MLPs trained against the spectral objective.

Each view gets a small fully connected network h^i = act(V^i h^{i-1} + b^i),
activation applied at every layer.  The training loss is the negated sum of
the top-k generalized eigenvalues of a ``framework.ModelSpec``'s pencil (a
catalog method's, from ``methods.MethodId``, or any other spec), built on the
network outputs exactly as the linear fit builds it on raw views.  One GEVD
is solved per epoch on the full batch.

Gradients are analytic rather than taped: first-order eigenvalue
perturbation gives the adjoints of the pencil sides (d loss / dA = -P P^T and
d loss / dB = P diag(lambda) P^T for the kept B-orthonormal eigenvectors),
the spec's kernel terms push those onto the feature matrices, and ordinary
backpropagation carries them to the weights.  The contract is agreement with
central finite differences to 1e-4 relative / 1e-7 absolute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .data import _read_matrix, _write_text
from .framework import fit_solved, pencil, spec_terms
from .gevd import NumericalError, solve
from .scatter import ClassStatistics, LowRankBlocks, materialize_grads

ACTIVATIONS = ("tanh", "sigmoid")
# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _act(name, Z, out=None):
    if name == "tanh":
        return np.tanh(Z, out=out)
    return expit(Z, out=out)


def _act_deriv_from_output(name, H, out):
    # Derivative expressed through the activation output, written into out.
    if name == "tanh":
        np.multiply(H, H, out=out)
        return np.subtract(1.0, out, out=out)
    np.subtract(1.0, H, out=out)
    out *= H
    return out


@dataclass(frozen=True)
class MlpConfig:
    """Architecture shared by every view's network."""

    hidden: tuple
    out_dim: int
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        if len(self.hidden) < 1:
            raise ValueError("at least one hidden layer is required")
        if any(int(h) < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        if self.out_dim < 1:
            raise ValueError("out_dim must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of "
                f"{ACTIVATIONS}"
            )
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


@dataclass
class MlpNetwork:
    """Weights and biases of one view's network."""

    weights: list  # V^i, shape (m_i, m_{i-1})
    biases: list  # b^i, shape (m_i,)

    @property
    def in_dim(self):
        return self.weights[0].shape[1]

    @property
    def out_dim(self):
        return self.weights[-1].shape[0]


def init_network(in_dim, config, rng):
    """Uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    dims = [int(in_dim)] + list(config.hidden) + [config.out_dim]
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpNetwork(weights=weights, biases=biases)


def init_networks(dataset, config):
    rng = np.random.default_rng(config.seed)
    return [init_network(d, config, rng) for d in dataset.dims]


def _forward_cache(net, X, activation, out=None):
    """Every layer's activations, the input first; ``out``, when given, holds
    one array per layer to write them into."""
    h = np.asarray(X, dtype=float)
    cache = [h]
    for i, (V, b) in enumerate(zip(net.weights, net.biases)):
        z = np.matmul(V, h, out=None if out is None else out[i])
        z += b[:, None]
        h = _act(activation, z, out=z)
        cache.append(h)
    return cache


def forward(net, X, activation):
    """Network output for columns of X."""
    return _forward_cache(net, X, activation)[-1]


def forward_views(nets, views, activation):
    return [forward(net, X, activation) for net, X in zip(nets, views)]


@dataclass(frozen=True)
class TrainerConfig:
    """Full-batch Adam's step size and epoch count plus the spectral-loss guard.

    ``jitter`` doubles as the threshold below which the spectrum gap at the
    k-cut counts as an eigenvalue crossing, and as the ridge bump used for a
    single retry when the constraint loses positive definiteness.
    """

    learning_rate: float = 1e-3
    epochs: int = 200
    jitter: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not (np.isfinite(self.jitter) and self.jitter >= 0):
            raise ValueError("jitter must be finite and nonnegative")


def _solve_with_retry(problem, jitter):
    """``solve``, with one retry on a jitter-scaled ridge when the constraint
    is not positive definite: jitter * max(tr B / d, 1) is added to the
    diagonal of each of its blocks, its low-rank term, if any, kept as it
    is."""
    try:
        return solve(problem)
    except NumericalError:
        Z = problem.constraint_low_rank
        blocks = [B.copy() for _, B in problem.constraint_blocks]
        trace = sum(np.trace(B) for B in blocks)
        if Z is not None:
            trace += np.einsum("ij,ij->", Z, Z)
        ridge = jitter * max(trace / problem.dim, 1.0)
        for B in blocks:
            B[np.diag_indices_from(B)] += ridge
        return solve(problem.with_constraint(LowRankBlocks(blocks, Z)))


def spectral_loss(features, labels, spec, jitter=1e-8):
    """Negated sum of the top-k eigenvalues of a ModelSpec's pencil on features.

    Returns ``(loss, solution)``.  A failed Cholesky gets one retry with a
    jitter-scaled ridge added to the constraint.
    """
    terms = spec_terms(spec, labels, features[0].shape[1], len(features))
    statistics = ClassStatistics.of(terms, features)
    solution = _solve_with_retry(pencil(terms, statistics, spec.k, spec.gamma), jitter)
    return float(-solution.eigenvalues.sum()), solution


class _Workspace:
    """The (width x n) arrays of a full-batch epoch, allocated once per run.

    Arrays this size, allocated afresh, come from pages glibc either
    recycles or faults in again depending on the heap's history, which would
    make an epoch's time depend on what ran before it in the process.
    ``acts`` holds each view's layer outputs; backpropagation takes the rest
    from ``scratch``, shared by the views since it handles one at a time.
    """

    def __init__(self, nets, n):
        self.n = n
        self.acts = [[np.empty((V.shape[0], n)) for V in net.weights] for net in nets]
        self._scratch = {}

    def scratch(self, role, rows):
        """The (rows x n) array kept for ``role``."""
        key = (role, rows)
        if key not in self._scratch:
            self._scratch[key] = np.empty((rows, self.n))
        return self._scratch[key]


def _backprop(net, cache, grad_out, activation, work):
    dWs = [None] * len(net.weights)
    dbs = [None] * len(net.biases)
    grad_h = grad_out
    for i in range(len(net.weights) - 1, -1, -1):
        H = cache[i + 1]
        delta = _act_deriv_from_output(activation, H, work.scratch("delta", len(H)))
        delta *= grad_h
        dWs[i] = delta @ cache[i].T
        dbs[i] = delta.sum(axis=1)
        if i > 0:
            V = net.weights[i]
            grad_h = np.matmul(V.T, delta, out=work.scratch("back", V.shape[1]))
    return dWs, dbs


def _loss_and_grads(nets, views, terms, spec, activation, jitter, work=None):
    """The spectral loss of ``spec`` on the networks' outputs, its solution,
    the outputs' ``ClassStatistics`` and each network's ``(dWs, dbs)``;
    ``terms`` is the spec's ``spec_terms`` list, which depends only on the
    spec and the labels."""
    if work is None:
        work = _Workspace(nets, views[0].shape[1])
    caches = [
        _forward_cache(net, X, activation, out)
        for net, X, out in zip(nets, views, work.acts)
    ]
    features = [c[-1] for c in caches]
    statistics = ClassStatistics.of(terms, features)
    solution = _solve_with_retry(pencil(terms, statistics, spec.k, spec.gamma), jitter)
    if spec.k < len(solution.P) and solution.spectrum_gap < jitter:
        raise NumericalError(
            f"eigenvalue crossing at the k-cut (gap {solution.spectrum_gap:.3e}); "
            "reduce k or increase the jitter"
        )
    loss = float(-solution.eigenvalues.sum())
    P = solution.P
    adjoints = (-(P @ P.T), (P * solution.eigenvalues) @ P.T)
    fgrads = materialize_grads(terms, features, adjoints)
    param_grads = [
        _backprop(net, cache, g, activation, work)
        for net, cache, g in zip(nets, caches, fgrads)
    ]
    return loss, solution, statistics, param_grads


def loss_gradient(nets, dataset, config, method, activation="tanh"):
    """Per-parameter gradients of the spectral loss at the current weights.

    ``method`` is the ModelSpec trained against.  Returns one ``(dWs, dbs)``
    pair per view, shapes matching the networks.
    """
    terms = spec_terms(method, dataset.labels, dataset.n_samples, dataset.n_views)
    _, _, _, grads = _loss_and_grads(
        nets, list(dataset.views), terms, method, activation, config.jitter
    )
    return grads


def train(dataset, spec, mlp_config, trainer_config):
    """Train per-view networks against the spectral loss of a ModelSpec.

    Runs ``epochs`` full-batch evaluations.  Before every epoch after the
    first, Adam (Kingma & Ba, 2015) takes one step on the previous epoch's
    gradients, updating each weight and bias array and its two moments in
    place, so the returned history and model correspond to the final
    weights.  Returns ``(nets, model, history)`` where ``model`` is the
    linear subspace model fitted on the final network outputs, packaged from
    the last epoch's statistics.
    """
    if mlp_config.out_dim < spec.k:
        raise ValueError(f"out_dim={mlp_config.out_dim} must be at least k={spec.k}")
    nets = init_networks(dataset, mlp_config)
    params = [p for net in nets for p in (*net.weights, *net.biases)]
    moments = [(np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    lr, b1, b2 = trainer_config.learning_rate, ADAM_BETA1, ADAM_BETA2
    views = list(dataset.views)
    terms = spec_terms(spec, dataset.labels, dataset.n_samples, dataset.n_views)
    work = _Workspace(nets, dataset.n_samples)
    history = []
    for t in range(trainer_config.epochs):
        if t > 0:
            grads = [g for dWs, dbs in param_grads for g in (*dWs, *dbs)]
            for p, g, (m, v) in zip(params, grads, moments):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * (g * g)
                step = lr * (m / (1 - b1**t))
                step /= np.sqrt(v / (1 - b2**t)) + ADAM_EPS
                p -= step
        loss, solution, statistics, param_grads = _loss_and_grads(
            nets, views, terms, spec, mlp_config.activation,
            trainer_config.jitter, work,
        )
        history.append(loss)
    return nets, fit_solved(statistics, solution, spec), np.asarray(history)


def save_networks(nets, config, out_dir):
    """Write per-layer weights/biases as CSV plus a JSON metadata file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s, net in enumerate(nets, start=1):
        for i, (V, b) in enumerate(zip(net.weights, net.biases), start=1):
            np.savetxt(out / f"V_{s}_{i}.csv", V, delimiter=",")
            np.savetxt(out / f"b_{s}_{i}.csv", b, delimiter=",")
    meta = {
        "n_views": len(nets),
        "in_dims": [net.in_dim for net in nets],
        "hidden": list(config.hidden),
        "out_dim": config.out_dim,
        "activation": config.activation,
        "seed": config.seed,
    }
    _write_text(out / "networks.json", json.dumps(meta, indent=2))


def load_networks(model_dir):
    """Rebuild ``(nets, config)`` saved by ``save_networks``."""
    root = Path(model_dir)
    meta = json.loads((root / "networks.json").read_text())
    config = MlpConfig(
        hidden=tuple(meta["hidden"]),
        out_dim=int(meta["out_dim"]),
        activation=meta["activation"],
        seed=int(meta["seed"]),
    )
    nets = []
    for s, in_dim in enumerate(meta["in_dims"], start=1):
        widths = [in_dim, *config.hidden, config.out_dim]
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:]), start=1):
            weights.append(_read_matrix(root / f"V_{s}_{i}.csv", (fan_out, fan_in)))
            biases.append(_read_matrix(root / f"b_{s}_{i}.csv", (fan_out, 1)).ravel())
        nets.append(MlpNetwork(weights=weights, biases=biases))
    return nets, config
