"""Small random fixtures shared across test modules."""

import numpy as np

from mvsubspace import MultiViewDataset


def balanced_labels(classes, n, rng):
    reps = np.full(classes, n // classes)
    reps[: n % classes] += 1
    labels = np.repeat(np.arange(1, classes + 1), reps)
    rng.shuffle(labels)
    return labels


def random_dataset(seed=0, dims=(5, 4, 3), classes=3, n=24, shift=0.6):
    """Gaussian views with a class-dependent mean shift so labels carry signal."""
    rng = np.random.default_rng(seed)
    labels = balanced_labels(classes, n, rng)
    views = tuple(
        rng.standard_normal((d, n)) + shift * labels[None, :] for d in dims
    )
    return MultiViewDataset(views, labels)


def orthonormalish_views(rng, dims, n, spread=2.0):
    """Views whose Gram matrices are well conditioned (columns near orthonormal)."""
    views = []
    for d in dims:
        Q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        views.append(Q @ np.diag(np.linspace(1.0, spread, n)))
    return views


# Dense n x n oracles for the factored label kernels of ``scatter``.


def centering_matrix(n):
    """H_n = I_n - (1/n) 1 1^T."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def class_average_matrix(indicator):
    """Q = Y^T Sigma^-1 Y: (x Q)_i averages x over the class of sample i."""
    Y = indicator.Y
    return Y.T @ (Y / indicator.counts[:, None])


def sigma_matrix(indicator):
    """The diagonal c x c matrix of class counts, Y Y^T."""
    return np.diag(indicator.counts.astype(float))


def between_kernel(indicator):
    n = indicator.Y.shape[1]
    return class_average_matrix(indicator) - 1.0 / n


def within_kernel(indicator):
    n = indicator.Y.shape[1]
    return np.eye(n) - class_average_matrix(indicator)


def center_distance_kernel(indicator):
    """L_b = Y^T Sigma^-1 H_c Sigma^-1 Y."""
    Yn = indicator.Y / indicator.counts[:, None]
    return Yn.T @ centering_matrix(indicator.n_classes) @ Yn


def dense_label_kernels(indicator):
    """Dense forms of every kernel ``scatter.label_kernels`` returns."""
    n = indicator.Y.shape[1]
    return {
        "centering": centering_matrix(n),
        "between": between_kernel(indicator),
        "within": within_kernel(indicator),
        "mean": np.full((n, n), 1.0 / n),
        "center_distance": center_distance_kernel(indicator),
    }


def between_class_scatter(X, indicator):
    """S_b = X (Q - (1/n) 1 1^T) X^T."""
    return X @ between_kernel(indicator) @ X.T


def within_class_scatter(X, indicator):
    """S_w = X (I - Q) X^T."""
    return X @ within_kernel(indicator) @ X.T


def densify(kernel):
    """The n x n matrix a LabelKernel stands for."""
    return kernel.apply(np.eye(kernel.Y.shape[1]))


def loss_only(nets, ds, method, activation):
    from mvsubspace.deep import forward_views, spectral_loss

    features = forward_views(nets, list(ds.views), activation)
    return spectral_loss(features, ds.labels, method)[0]


def fd_worst_violation(ds, method, mlp, activation, h=1e-5, mutate=None,
                       rtol=1e-4, atol=1e-7):
    """Largest violation of |grad - fd| <= atol + rtol * |fd| over all params."""
    from mvsubspace.deep import TrainerConfig, init_networks, loss_gradient

    nets = init_networks(ds, mlp)
    if mutate is not None:
        mutate(nets)
    grads = loss_gradient(
        nets, ds, TrainerConfig(), method=method, activation=activation
    )
    worst = -np.inf
    for net, (dWs, dbs) in zip(nets, grads):
        for arr, g in list(zip(net.weights, dWs)) + list(zip(net.biases, dbs)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = loss_only(nets, ds, method, activation)
                arr[idx] = keep - h
                down = loss_only(nets, ds, method, activation)
                arr[idx] = keep
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(g[idx] - fd) - (atol + rtol * abs(fd)))
    return worst
