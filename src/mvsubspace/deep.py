"""Deep extension: per-view MLPs trained against the spectral objective.

Each view gets a small fully connected network h^i = act(V^i h^{i-1} + b^i),
activation applied at every layer.  The training loss is the negated sum of
the top-k generalized eigenvalues of the chosen method's pencil, built on the
network outputs exactly as the linear catalog builds it on raw views.  One
GEVD is solved per epoch on the full batch.

Gradients are analytic rather than taped: first-order eigenvalue
perturbation gives the adjoints of the pencil sides (d loss / dA = -P P^T and
d loss / dB = P diag(lambda) P^T for the kept B-orthonormal eigenvectors),
the method's kernel terms push those onto the feature matrices, and ordinary
backpropagation carries them to the weights.  The contract is agreement with
central finite differences to 1e-4 relative / 1e-7 absolute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit

from .data import MultiViewDataset
from .framework import fit_solved
from .gevd import GevdProblem, NumericalError, solve
from .methods import _method_spec, _pencil, build_from_views, method_terms
from .scatter import materialize_grads

ACTIVATIONS = ("tanh", "sigmoid")


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

    @property
    def depth(self):
        return len(self.hidden) + 1


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
    """Optimizer settings (full-batch Adam) plus the spectral-loss guards.

    ``jitter`` doubles as the threshold below which the spectrum gap at the
    k-cut counts as an eigenvalue crossing, and as the ridge bump used for a
    single retry when the constraint loses positive definiteness.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 200
    jitter: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")


def _solve_with_retry(problem, jitter):
    try:
        return solve(problem), problem
    except NumericalError:
        d = problem.dim
        scale = max(np.trace(problem.constraint) / d, 1.0)
        bumped = GevdProblem(
            problem.objective,
            problem.constraint + jitter * scale * np.eye(d),
            problem.k,
            problem.objective_factor,
        )
        return solve(bumped), bumped


def spectral_loss(features, labels, method, k=None, jitter=1e-8):
    """Negated sum of the top-k eigenvalues of the method pencil on features.

    Returns ``(loss, solution)``.  A failed Cholesky gets one retry with a
    jitter-scaled ridge added to the constraint.
    """
    if k is not None and k != method.k:
        method = replace(method, k=int(k))
    problem = build_from_views(method, features, labels)
    solution, _ = _solve_with_retry(problem, jitter)
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


def _loss_and_grads(nets, views, labels, method, activation, jitter, work=None):
    if work is None:
        work = _Workspace(nets, views[0].shape[1])
    caches = [
        _forward_cache(net, X, activation, out)
        for net, X, out in zip(nets, views, work.acts)
    ]
    features = [c[-1] for c in caches]
    terms = method_terms(method, features[0].shape[1], labels, len(features))
    problem = _pencil(method, terms, features)
    solution, solved = _solve_with_retry(problem, jitter)
    if method.k < solved.dim and solution.spectrum_gap < jitter:
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
    return loss, solution, features, param_grads


def loss_gradient(nets, dataset, config, method, activation="tanh"):
    """Per-parameter gradients of the spectral loss at the current weights.

    Returns one ``(dWs, dbs)`` pair per view, shapes matching the networks.
    """
    _, _, _, grads = _loss_and_grads(
        nets, list(dataset.views), dataset.labels, method, activation, config.jitter
    )
    return grads


class _Adam:
    def __init__(self, shapes, lr, beta1, beta2, eps):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _flatten_params(nets):
    params = []
    for net in nets:
        params.extend(net.weights)
        params.extend(net.biases)
    return params


def _flatten_grads(param_grads):
    flat = []
    for dWs, dbs in param_grads:
        flat.extend(dWs)
        flat.extend(dbs)
    return flat


def train(dataset, method, mlp_config, trainer_config):
    """Train per-view networks against the spectral loss of a method.

    Runs ``epochs`` full-batch evaluations; every epoch except the last is
    followed by one Adam step, so the returned history and model correspond
    to the final weights.  Returns ``(nets, model, history)`` where ``model``
    is the linear subspace model fitted on the final network outputs.
    """
    if dataset.labels is None and method.name != "MCCA":
        raise ValueError(f"{method.name} needs labels")
    if mlp_config.out_dim < method.k:
        raise ValueError(
            f"out_dim={mlp_config.out_dim} must be at least k={method.k}"
        )
    nets = init_networks(dataset, mlp_config)
    activation = mlp_config.activation
    params = _flatten_params(nets)
    adam = _Adam(
        [p.shape for p in params],
        trainer_config.learning_rate,
        trainer_config.beta1,
        trainer_config.beta2,
        trainer_config.eps,
    )
    views = list(dataset.views)
    work = _Workspace(nets, dataset.n_samples)
    history = []
    final = None
    for epoch in range(trainer_config.epochs):
        loss, solution, features, param_grads = _loss_and_grads(
            nets, views, dataset.labels, method, activation, trainer_config.jitter,
            work,
        )
        history.append(loss)
        if epoch == trainer_config.epochs - 1:
            final = (solution, features)
            break
        adam.step(params, _flatten_grads(param_grads))
    solution, features = final
    feature_ds = MultiViewDataset(tuple(features), dataset.labels)
    model = fit_solved(feature_ds, solution, _method_spec(method))
    return nets, model, np.asarray(history)


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
    tmp = out / "networks.json.tmp"
    tmp.write_text(json.dumps(meta, indent=2))
    tmp.replace(out / "networks.json")


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
    depth = len(meta["hidden"]) + 1
    for s in range(1, meta["n_views"] + 1):
        weights = []
        biases = []
        for i in range(1, depth + 1):
            V = np.loadtxt(root / f"V_{s}_{i}.csv", delimiter=",", ndmin=2)
            b = np.loadtxt(root / f"b_{s}_{i}.csv", delimiter=",")
            weights.append(V)
            biases.append(np.atleast_1d(b))
        nets.append(MlpNetwork(weights=weights, biases=biases))
    return nets, config
