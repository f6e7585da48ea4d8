"""Small random fixtures shared across test modules."""

import numpy as np
from scipy.linalg import solve_triangular

from mvsubspace import ModelSpec, MultiViewDataset, build_indicator
from mvsubspace.data import make_target
from mvsubspace.framework import pencil
from mvsubspace.gevd import GevdSolution, NumericalError, _fix_signs, solve
from mvsubspace.scatter import (
    ClassStatistics,
    KernelTerm,
    LowRankBlocks,
    _kernel_pieces,
    _side,
    _summed_terms,
    _view_blocks,
    label_kernels,
    materialize,
    pseudo_inverse_coupling,
    symmetrize,
)


# Every regularizer at a nonzero weight: a spec no catalog method spells.
EVERY_REGULARIZER = ModelSpec(
    "centered_onehot", k=1, lam=0.3,
    regularizers=(("mean", 0.5), ("representer", 0.2), ("hsic", 0.3),
                  ("cca", 0.4), ("lda", 0.7), ("joint", 0.6)),
)


def center_columns(X):
    """Subtract the mean column of X, i.e. compute X @ H_n."""
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=1, keepdims=True)


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
    H = centering_matrix(n)
    return {
        "centering": H,
        "between": between_kernel(indicator),
        "within": within_kernel(indicator),
        "mean": np.full((n, n), 1.0 / n),
        "center_distance": center_distance_kernel(indicator),
        "centered_onehot": H @ indicator.Y.T @ indicator.Y @ H,
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


def blockdiag_dense(matrices):
    """Dense block-diagonal assembly of square matrices."""
    dims = [M.shape[0] for M in matrices]
    out = np.zeros((sum(dims), sum(dims)))
    pos = 0
    for M in matrices:
        d = M.shape[0]
        out[pos:pos + d, pos:pos + d] = M
        pos += d
    return out


def _times_kernel(M, kernel):
    return M if kernel is None else kernel.apply(M)


def dense_materialize(terms, views):
    """``scatter.materialize`` with a full d x d matrix per term: blockdiag
    terms zero-padded, every product scaled into a copy and added."""
    stacked = np.vstack(views)
    d = stacked.shape[0]
    sides = {"objective": np.zeros((d, d)), "constraint": np.zeros((d, d))}
    for term in terms:
        if term.layout == "dense":
            M = _times_kernel(stacked, term.kernel) @ stacked.T
        elif term.layout == "blockdiag":
            M = blockdiag_dense(
                [_times_kernel(X, term.kernel) @ X.T for X in views]
            )
        elif term.layout == "representer":
            M = pseudo_inverse_coupling(views)
        else:
            raise ValueError(f"unknown term layout {term.layout!r}")
        sides[term.side] += term.coeff * M
    return symmetrize(sides["objective"]), symmetrize(sides["constraint"])


def catalog_terms(method, n, labels, v):
    """Oracle term lists of the catalog methods, written out by hand.

    ``methods.build`` derives each pencil from the method's ModelSpec; these
    are the same pencils spelled directly.  MCCA uses one class; ``labels``
    may be None only there.
    """
    name = method.method
    lam = method.lam
    if name == "MCCA":
        labels = np.ones(n, dtype=int)
    elif labels is None:
        raise ValueError(f"{name} needs labels")
    K = label_kernels(build_indicator(labels))
    H, between, within = K["centering"], K["between"], K["within"]
    if name == "MCCA":
        return [
            KernelTerm("objective", "dense", 1.0, H),
            KernelTerm("constraint", "blockdiag", 1.0, H),
        ]
    if name == "MvOPLS":
        return [
            KernelTerm("objective", "dense", 1.0, between),
            KernelTerm("constraint", "blockdiag", 1.0, H),
        ]
    if name == "MvLDA":
        return [
            KernelTerm("objective", "dense", 1.0, between),
            KernelTerm("constraint", "dense", 1.0, H),
        ]
    if name in ("MvDA", "MvDA_VC", "MvDA_CCA"):
        terms = [
            KernelTerm("objective", "dense", 1.0, between),
            KernelTerm("constraint", "blockdiag", 1.0),
            KernelTerm("constraint", "dense", -1.0 / v, K["mean"]),
        ]
        if name == "MvDA_VC":
            terms.append(KernelTerm("constraint", "representer", lam, None))
        if name == "MvDA_CCA":
            terms.append(KernelTerm("objective", "dense", lam, H))
            terms.append(KernelTerm("objective", "blockdiag", -lam * v, H))
        return terms
    if name == "MvMDA":
        return [
            KernelTerm("objective", "dense", 1.0, K["center_distance"]),
            KernelTerm("constraint", "blockdiag", 1.0, within),
        ]
    if name in ("MLDA", "GMA"):
        return [
            KernelTerm("objective", "dense", 1.0, H),
            KernelTerm("objective", "blockdiag", -1.0, H),
            KernelTerm("objective", "blockdiag", lam, between),
            KernelTerm("constraint", "blockdiag", 1.0, H if name == "MLDA" else within),
        ]
    raise ValueError(f"unknown method {name!r}")


def dense_sides(objective, constraint):
    """``materialize``'s two sides as d x d arrays: an objective returned as
    its forming function formed, a constraint returned as its diagonal
    blocks, with or without a low-rank term, assembled."""
    if isinstance(constraint, LowRankBlocks):
        Z = constraint.Z
        constraint = symmetrize(blockdiag_dense(constraint.blocks) + Z @ Z.T)
    elif isinstance(constraint, list):
        constraint = blockdiag_dense(constraint)
    return objective() if callable(objective) else objective, constraint


def materialize_on(terms, views):
    """``materialize`` of the terms on the ClassStatistics they read, both
    sides as d x d arrays (``dense_sides``)."""
    objective, constraint, factor = materialize(terms, ClassStatistics.of(terms, views))
    return (*dense_sides(objective, constraint), factor)


def catalog_pencil(method, dataset):
    """The GevdProblem of ``catalog_terms``, materialized as ``build`` does."""
    terms = catalog_terms(
        method, dataset.n_samples, dataset.labels, dataset.n_views
    )
    return pencil(terms, ClassStatistics.of(terms, dataset.views), method.k,
                  method.gamma)


# ``materialize`` builds pencils from sufficient statistics and sums in
# another order than ``dense_materialize``; they agree to this share of the
# side's largest entry.
PENCIL_RTOL = 1e-13


def pencil_gap(got, want):
    """max|got - want| relative to max|want|."""
    return np.abs(got - want).max() / max(np.abs(want).max(), np.finfo(float).tiny)


def views_times_target(dataset, spec):
    """X H T^T (d x o) over the stacked centred views; X H for identity_n.

    The stacked-copy form of ``framework.fit_solved``'s W = P^T X H T^T.
    """
    stacked = np.vstack([center_columns(X) for X in dataset.views])
    if spec.target_kind == "identity_n":
        return stacked
    return stacked @ make_target(dataset, spec.target_kind).T


def stacked_class_statistics(views, Y, counts, gram):
    """``(F, C_w, C_blocks)`` of ``scatter.ClassStatistics`` through
    ``np.vstack``: the stacked copy is centred in place by mu, then by the
    one-hot product (S / counts) Y."""
    X = np.vstack(views)
    mu = X.sum(axis=1) / X.shape[1]
    X -= mu[:, None]
    S = X @ Y.T
    F = np.column_stack((S, mu))
    rows = _view_blocks(views)
    if gram is None:
        return F, None, [None] * len(rows)
    X -= (S / counts) @ Y
    if gram == "full":
        C_w = X @ X.T
        return F, C_w, [C_w[b, b] for b in rows]
    return F, None, [X[b] @ X[b].T for b in rows]


def regularized_gram_inverse(X):
    """(X^T X + eps I)^-1 with the library's jitter eps = 1e-10 ||X||_F^2 / d."""
    d, n = X.shape
    G = X.T @ X
    return np.linalg.inv(G + 1e-10 * np.trace(G) / d * np.eye(n))


def svd_ridge_pinv(X):
    """X (X^T X + eps I)^-1 as U diag(s / (s^2 + eps)) V^T, the same eps."""
    eps = 1e-10 * np.sum(X * X) / X.shape[0]
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return (U * (s / (s**2 + eps))) @ Vt


def dense_gevd(problem):
    """Full-spectrum oracle for ``gevd.solve``: Cholesky, two triangular
    solves for C = L^-1 A L^-T, every eigenpair of C, back-transform."""
    A = problem.objective
    B = problem.constraint
    d = problem.dim
    k = problem.k
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "constraint matrix is not positive definite; increase the "
            "tikhonov gamma"
        ) from None
    # C = L^-1 A L^-T via two triangular solves.
    T = solve_triangular(L, A, lower=True)
    C = solve_triangular(L, T.T, lower=True).T
    C = symmetrize(C)
    eigvals, U = np.linalg.eigh(C)
    eigvals = eigvals[::-1]
    U = U[:, ::-1]
    gap = float(eigvals[k - 1] - eigvals[k]) if k < d else 0.0
    P = solve_triangular(L, U[:, :k], lower=True, trans="T")
    P = _fix_signs(P)
    return GevdSolution(
        P=P, eigenvalues=eigvals[:k].copy(), spectrum_gap=gap, route="full"
    )


def dense_retry(problem, jitter):
    """``deep._solve_with_retry`` on the dense constraint: ``solve``, then
    one retry on B + jitter * max(tr B / d, 1) I when B is not positive
    definite."""
    try:
        return solve(problem)
    except NumericalError:
        d = problem.dim
        scale = max(np.trace(problem.constraint) / d, 1.0)
        return solve(problem.with_constraint(
            problem.constraint + jitter * scale * np.eye(d)
        ))


def _longdouble_lower_solve(L, B):
    """L^-1 B in long double by forward substitution, L lower triangular."""
    L = L.astype(np.longdouble)
    X = np.zeros(B.shape, dtype=np.longdouble)
    for i in range(L.shape[0]):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def longdouble_whitened(samples, whitening):
    """C = L^-1 A L^-T of a ``scatter.SampleObjective`` in long double: A
    summed block by block from its samples, L^-1 = N L_0^-1 with L_0 the
    blockdiag of the whitening's factors and N = I + W diag(h) W^T its fold
    (the identity without a low-rank term)."""
    X_w, F = (np.asarray(Z, dtype=np.longdouble) for Z in (samples.X_w, samples.F))
    d = X_w.shape[0]
    A = np.zeros((d, d), dtype=np.longdouble)
    L = np.zeros((d, d))
    factors = whitening.factors
    for s, (rows, L_s) in enumerate(factors):
        L[rows, rows] = np.tril(L_s)
        for t, (cols, _) in enumerate(factors):
            eye, Mt = samples.diagonal if s == t else samples.off_diagonal
            m = len(Mt)
            A[rows, cols] = (eye * (X_w[rows] @ X_w[cols].T)
                             + F[rows, :m] @ Mt.astype(np.longdouble) @ F[cols, :m].T)
    C = _longdouble_lower_solve(L, _longdouble_lower_solve(L, A).T).T
    if whitening.W is None:
        return C
    W = whitening.W.astype(np.longdouble)
    N = np.eye(d, dtype=np.longdouble) + (W * whitening.h.astype(np.longdouble)) @ W.T
    return N @ C @ N


def longdouble_cholesky(B):
    """The lower Cholesky factor of B in long double, column by column."""
    B = np.asarray(B, dtype=np.longdouble)
    L = np.zeros(B.shape, dtype=np.longdouble)
    for j in range(B.shape[0]):
        pivot = B[j, j] - L[j, :j] @ L[j, :j]
        L[j, j] = np.sqrt(pivot)
        L[j + 1:, j] = (B[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _longdouble_householder(V):
    """(Q, R): Q^T V = [R; 0] by one Householder reflector per column of V,
    in long double, Q full and orthogonal."""
    d, m = V.shape
    R = np.asarray(V, dtype=np.longdouble).copy()
    Q = np.eye(d, dtype=np.longdouble)
    for j in range(m):
        x = R[j:, j].copy()
        x[0] -= -np.copysign(np.sqrt(x @ x), x[0])
        scale = 2 / (x @ x)
        R[j:] -= np.outer(x, scale * (x @ R[j:]))
        Q[:, j:] -= np.outer(scale * (Q[:, j:] @ x), x)
    return Q, np.triu(R[:m])


def longdouble_mean_oracle(dataset, gamma, cca=0.0):
    """``(eigenvalues, B_0, Z)`` of MvDA (``cca`` 0) or MvDA_CCA (``cca`` its
    lam) in long double, from the raw views, never forming B.

    B = B_0 + Z Z^T with B_0 = blockdiag(X_s H X_s^T) + gamma I and
    Z Z^T = n U (I - 1 1^T / v) U^T, U = blockdiag(mu_s); the objective is
    A = X (Q - 1 1^T / n) X^T + cca (X H X^T - v blockdiag(X_s H X_s^T)).
    With B_0 = L_0 L_0^T, V = L_0^-1 Z and Q^T V = [R; 0],
    Q^T (I + V V^T) Q = blockdiag(I + R R^T, I), so with I + R R^T = L_m L_m^T
    the eigenvalues (descending) are those of
    K^-1 Q^T L_0^-1 A L_0^-T Q K^-T, K = blockdiag(L_m, I).  Formed in long
    double, B would round its n mu_s mu_s^T at a size that swamps gamma once
    the views are offset by 1e4 or more."""
    views = [np.asarray(X, dtype=np.longdouble) for X in dataset.views]
    v, n = len(views), dataset.n_samples
    centred = [X - (X.sum(axis=1) / n)[:, None] for X in views]
    rows = _view_blocks(views)
    d = rows[-1].stop
    helmert = np.zeros((v, v - 1))
    for j in range(1, v):
        helmert[:j, j - 1] = 1.0 / np.sqrt(j * (j + 1))
        helmert[j, j - 1] = -j / np.sqrt(j * (j + 1))
    B_0 = gamma * np.eye(d, dtype=np.longdouble)
    Z = np.zeros((d, v - 1), dtype=np.longdouble)
    for s, (b, X, X_c) in enumerate(zip(rows, views, centred)):
        B_0[b, b] += X_c @ X_c.T
        Z[b] = np.sqrt(np.longdouble(n)) * np.outer(X.sum(axis=1) / n, helmert[s])
    X_c = np.vstack(centred)
    indicator = build_indicator(dataset.labels)
    sums = X_c @ indicator.Y.T.astype(np.longdouble)
    A = (sums / indicator.counts) @ sums.T + cca * (X_c @ X_c.T)
    for b, X_s in zip(rows, centred):
        A[b, b] -= cca * v * (X_s @ X_s.T)
    L_0 = longdouble_cholesky(B_0)
    Q, R = _longdouble_householder(_longdouble_lower_solve(L_0, Z))
    K = np.eye(d, dtype=np.longdouble)
    K[:v - 1, :v - 1] = longdouble_cholesky(np.eye(v - 1) + R @ R.T)
    C = _longdouble_lower_solve(L_0, _longdouble_lower_solve(L_0, A).T).T
    C = Q.T @ C @ Q
    C = _longdouble_lower_solve(K, _longdouble_lower_solve(K, C).T).T
    return np.linalg.eigvalsh(C.astype(float))[::-1], B_0, Z


def parent_constraint(terms, statistics):
    """The constraint of the terms as one d x d array, every term summed into
    its layout (the mean kernel's onto the diagonal blocks and the dense
    side), as ``scatter`` builds a constraint with dense terms."""
    pieces, couplings = _summed_terms(
        terms, lambda kernel: _kernel_pieces(kernel, statistics.counts)
    )
    return _side("constraint", pieces, couplings, statistics, statistics.C_w, None)


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


# Oracles for ``evaluation``: the direct q x g x d difference formula in
# 1 MiB query blocks, argmin for 1-NN and a stable argsort for retrieval.

_BLOCK_BYTES = 1 << 20


def _query_blocks(Z_query, Z_gallery):
    Q = np.asarray(Z_query, dtype=float).T
    G = np.asarray(Z_gallery, dtype=float).T
    step = max(1, _BLOCK_BYTES // max(1, G.size * G.itemsize))
    for start in range(0, Q.shape[0], step):
        rows = slice(start, start + step)
        diffs = Q[rows, None, :] - G[None, :, :]
        yield rows, np.einsum("qgd,qgd->qg", diffs, diffs)


def dense_knn1(Z_train, labels_train, Z_test):
    """1-NN labels from every exact distance, ties to the lowest index."""
    nearest = np.empty(np.shape(Z_test)[1], dtype=np.intp)
    for rows, d2 in _query_blocks(Z_test, Z_train):
        nearest[rows] = np.argmin(d2, axis=1)
    return np.asarray(labels_train)[nearest]


def dense_direction_aps(Z_query, labels_query, Z_gallery, labels_gallery):
    """Per-query APs from a stable argsort of every exact distance."""
    labels_query = np.asarray(labels_query)
    labels_gallery = np.asarray(labels_gallery)
    positions = np.arange(1, np.shape(Z_gallery)[1] + 1, dtype=np.longdouble)
    aps = np.empty(np.shape(Z_query)[1])
    for rows, d2 in _query_blocks(Z_query, Z_gallery):
        order = np.argsort(d2, axis=1, kind="stable")
        ranked_labels = labels_gallery[order]
        rel = (ranked_labels == labels_query[rows, None]).astype(np.longdouble)
        totals = rel.sum(axis=1)
        precision_at = np.cumsum(rel, axis=1) / positions
        sums = (precision_at * rel).sum(axis=1)
        aps[rows] = np.where(totals > 0, sums / np.maximum(totals, 1.0), 0.0)
    return aps
