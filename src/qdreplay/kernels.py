"""Quality-diversity joint kernel and k-DPP subset selection.

``JointKernel`` holds L's factors, the similarity, sqrt(quality) and lambda;
its one reader, ``entries``, is what greedy MAP, ``values`` (the N x N L,
built only when read) and ``kernel.csv`` read, so they agree bit for bit.
``fast_greedy_map`` serves production-size pools in O(k^2 N) time and O(k N)
memory beside the similarity, reading only L's diagonal and each pick's
column. The O(k N^2) ``greedy_map`` it reproduces bit for bit, the exhaustive
optimizer, exact subset probabilities and the exact sampler are verification
oracles; the last three are shipped behind size guards.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

DEFAULT_LAMBDA = 1e-3
# Residual variance below this counts as numerically spanned: greedy stops early.
EPS_PD = 1e-10
# Cholesky pivot threshold below which a submatrix counts as singular.
CHOL_EPS = 1e-12
EXHAUSTIVE_GUARD = 10 ** 6
EIG_RANK_TOL = 1e-10
# Downdate terms per reduction in fast_greedy_map, which bounds its scratch to
# 1 + _TERM_BLOCK rows of N beside the k x N residual columns.
_TERM_BLOCK = 64


@dataclass
class JointKernel:
    """L = diag(sqrt q) S diag(sqrt q) + lam I, kept as its factors.

    ``similarity`` is held, not copied, and must not change while the kernel
    is in use. Every entry of L that is read is computed by ``entries``, as
    ``(sqrt(q_i) * S_ij) * sqrt(q_j)``, plus ``lam`` on the diagonal.
    """

    similarity: np.ndarray
    root_quality: np.ndarray
    lam: float

    def entries(self, rows, cols) -> np.ndarray:
        """L at ``similarity[rows, cols]``: index arrays in [0, N) that broadcast together,
        or the ``slice(None)`` rows of one column j.

        The result is a new array; this is the one place L's arithmetic is written.
        """
        values = self.similarity[rows, cols]  # a view by basic indexing, a copy by fancy
        values = values.copy() if isinstance(rows, slice) else np.asarray(values)
        values *= self.root_quality[rows]  # S_ij * sqrt(q_i): the bits of sqrt(q_i) * S_ij
        values *= self.root_quality[cols]
        every = np.arange(len(self.root_quality))
        np.add(values, self.lam, out=values, where=every[rows] == every[cols])
        return values

    @property
    def values(self) -> np.ndarray:
        """L as a new N x N array, built at each read."""
        every = np.arange(len(self.root_quality))
        return self.entries(every[:, None], every)

    def write_csv(self, path: str | Path, header_comment: str | None = None) -> None:
        """Row-major dump of L, built one row at a time, after a one-line (N, lambda) header."""
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow([len(self.root_quality), repr(float(self.lam))])
            every = np.arange(len(self.root_quality))
            writer.writerows([repr(float(x)) for x in self.entries(i, every)] for i in every)


@dataclass
class SelectionResult:
    indices: list[int]
    gains: list[float]
    logdet: float


def build_joint_kernel(
    similarity: np.ndarray,
    quality: Sequence[float],
    lam: float = DEFAULT_LAMBDA,
) -> JointKernel:
    """L_ij = sqrt(q_i) * S_ij * sqrt(q_j), plus lam on the diagonal.

    Each entry's association strength is the similarity modulated by the
    geometric mean of the two windows' qualities, so low-quality items lose
    influence on the whole diversity structure. The result holds ``similarity``
    and sqrt(quality); L itself is built only when ``values`` is read.
    """
    s = np.asarray(similarity, dtype=float)
    q = np.asarray(quality, dtype=float)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity must be square, got {s.shape}")
    if q.shape[0] != s.shape[0]:
        raise ValueError(f"quality length {q.shape[0]} != similarity size {s.shape[0]}")
    if not np.all(q > 0):
        raise ValueError("quality scores must be strictly positive (floor upstream), not NaN")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    return JointKernel(similarity=s, root_quality=np.sqrt(q), lam=float(lam))


def log_det(matrix: np.ndarray) -> float:
    """log det of a symmetric matrix, by LAPACK's Cholesky factorization.

    Returns -inf when the factorization fails (the matrix is not positive
    definite) or a squared pivot falls at or below the singularity
    threshold; otherwise the sum of the logs of the squared pivots.
    """
    try:
        factor = np.linalg.cholesky(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError:
        return -math.inf
    pivots = np.diagonal(factor) ** 2
    if (pivots <= CHOL_EPS).any():
        return -math.inf
    return float(np.log(pivots).sum())


def greedy_map(kernel: np.ndarray, k: int) -> SelectionResult:
    """Greedy MAP subset of size k by largest marginal log-det gain.

    Each step picks the candidate with the largest residual variance
    (the Schur complement of the current selection, log of which is the
    marginal gain) and downdates the full residual kernel, so a step costs
    O(N^2) and a full run O(k N^2). Ties break to the lowest index. When
    every remaining residual is at most EPS_PD the selection stops early
    and fewer than k indices are returned.
    """
    values = np.asarray(kernel, dtype=float)
    n = values.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    residual = values.astype(float, copy=True)
    alive = np.ones(n, dtype=bool)
    indices: list[int] = []
    gains: list[float] = []
    for _ in range(k):
        diag = np.where(alive, np.diagonal(residual), -np.inf)
        j = int(np.argmax(diag))
        if diag[j] <= EPS_PD:
            break
        gains.append(float(np.log(diag[j])))
        col = residual[:, j].copy()
        residual -= np.outer(col, col) / diag[j]
        alive[j] = False
        indices.append(j)
    return SelectionResult(indices=indices, gains=gains, logdet=float(sum(gains)))


def fast_greedy_map(kernel: JointKernel, k: int) -> SelectionResult:
    """Greedy MAP with ``greedy_map``'s indices, gains and logdet, bit for bit.

    The column-at-a-time greedy of Chen, Zhang & Zhou, "Fast Greedy MAP
    Inference for DPP" (NeurIPS 2018). Only the residual diagonal and the
    residual column of each pick are kept, never the N x N residual, so a run
    costs O(k^2 N) time and O(k N) memory. Of ``kernel``, ``entries`` reads
    only the diagonal and the picks' columns, so L is never built; a plain
    matrix L goes in as ``build_joint_kernel(L, np.ones(n), 0.0)``, whose
    entries are L's bits. A step picks as ``greedy_map`` does and downdates
    the diagonal by the pick's residual column: the kernel column less the
    earlier picks' downdate terms ``columns[s] * columns[s, j] / pivots[s]``,
    in pick order. A scratch buffer holds the running column in row 0 and the
    next block of up to ``_TERM_BLOCK`` terms below it, made by one multiply
    and divide, and one ``np.subtract.reduce`` down its rows subtracts the
    block; the result is the next block's row 0. So the scratch stays at
    1 + ``_TERM_BLOCK`` rows of N whatever k is, and every entry
    ``greedy_map`` reads gets the same floating-point operations in the same
    order, at O(k) numpy calls per run (O(k^2 / _TERM_BLOCK) past k =
    ``_TERM_BLOCK``); the normalized Cholesky form (``C[:t, j] @ C[:t]``)
    would round differently.
    """
    n = len(kernel.root_quality)
    every = np.arange(n)
    diagonal = kernel.entries(every, every)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    columns = np.empty((k, n))  # residual column of each pick, when it was picked
    pivots = np.empty(k)
    # The running column, then one block of downdate terms. A reduction must not
    # write into the rows it reads (numpy would copy them), so a block's result
    # goes into the pick's row of columns, and back into row 0 if a block follows.
    scratch = np.empty((min(k, _TERM_BLOCK + 1), n))
    downdate = np.empty(n)
    indices: list[int] = []
    gains: list[float] = []
    for step in range(k):
        j = int(diagonal.argmax())  # picks hold -inf
        pivot = diagonal[j]
        if pivot <= EPS_PD:
            break
        gains.append(float(np.log(pivot)))
        scratch[0] = kernel.entries(slice(None), j)
        first = 0
        while True:
            last = min(first + _TERM_BLOCK, step)
            terms = scratch[1:last - first + 1]
            np.multiply(columns[first:last], columns[first:last, j, None], out=terms)
            terms /= pivots[first:last, None]
            col = np.subtract.reduce(scratch[:last - first + 1], axis=0, out=columns[step])
            if last == step:
                break
            scratch[0], first = col, last
        pivots[step] = pivot
        np.multiply(col, col, out=downdate)
        downdate /= pivot
        diagonal -= downdate
        diagonal[j] = -np.inf
        indices.append(j)
    return SelectionResult(indices=indices, gains=gains, logdet=float(sum(gains)))


def exhaustive_map(kernel: np.ndarray, k: int) -> SelectionResult:
    """Exact argmax of log det over all size-k subsets (verification oracle).

    Guarded to C(N, k) <= 10^6 combinations; ties go to the lexicographically
    smallest index set because enumeration is in lexicographic order.
    """
    values = np.asarray(kernel, dtype=float)
    n = values.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if math.comb(n, k) > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"C({n},{k}) exceeds the enumeration guard ({EXHAUSTIVE_GUARD}); use greedy_map"
        )
    best_subset: tuple[int, ...] | None = None
    best = -math.inf
    for subset in itertools.combinations(range(n), k):
        ld = log_det(values[np.ix_(subset, subset)])
        if ld > best:
            best = ld
            best_subset = subset
    assert best_subset is not None
    return SelectionResult(indices=list(best_subset), gains=[], logdet=float(best))


def _psd_eigenvalues(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eigvals, eigvecs = np.linalg.eigh((values + values.T) / 2.0)
    return np.maximum(eigvals, 0.0), eigvecs


def kdpp_subset_probability(kernel: np.ndarray, subset: Sequence[int]) -> float:
    """Exact probability of one size-k subset: det(L_Y) / e_k(eigenvalues)."""
    values = np.asarray(kernel, dtype=float)
    n = values.shape[0]
    if n > 20:
        raise ValueError(f"subset probabilities are verification-scale only (N <= 20, got {n})")
    idx = list(subset)
    if len(set(idx)) != len(idx) or not idx or min(idx) < 0 or max(idx) >= n:
        raise ValueError(f"invalid subset {idx}")
    eigvals, _ = _psd_eigenvalues(values)
    normalizer = _esp_table(eigvals, len(idx))[len(idx), n]
    det = float(np.linalg.det(values[np.ix_(idx, idx)]))
    return max(det, 0.0) / normalizer


def kdpp_sample(kernel: np.ndarray, k: int, seed) -> list[int]:
    """Exact size-k DPP draw (verification-scale, N <= 64).

    Eigenvectors are first subsampled with the elementary-symmetric-polynomial
    recursion, then items are drawn by sequential orthogonal projection, so
    the output distribution matches kdpp_subset_probability.
    """
    values = np.asarray(kernel, dtype=float)
    n = values.shape[0]
    if n > 64:
        raise ValueError(f"exact sampling is verification-scale only (N <= 64, got {n})")
    eigvals, eigvecs = _psd_eigenvalues(values)
    rank = int(np.count_nonzero(eigvals > EIG_RANK_TOL))
    if not 1 <= k <= rank:
        raise ValueError(f"k={k} exceeds numerical rank {rank}")
    rng = np.random.default_rng(seed)
    table = _esp_table(eigvals, k)
    chosen_vectors = _sample_eigenvector_subset(eigvals, k, table, rng)
    return _sample_from_projection(eigvecs[:, chosen_vectors], rng)


def _esp_table(eigvals: np.ndarray, k: int) -> np.ndarray:
    n = len(eigvals)
    table = np.zeros((k + 1, n + 1))
    table[0, :] = 1.0
    for j in range(1, k + 1):
        for m in range(1, n + 1):
            table[j, m] = table[j, m - 1] + eigvals[m - 1] * table[j - 1, m - 1]
    return table


def _sample_eigenvector_subset(
    eigvals: np.ndarray, k: int, table: np.ndarray, rng: np.random.Generator
) -> list[int]:
    chosen = []
    j = k
    for m in range(len(eigvals), 0, -1):
        if j == 0:
            break
        if table[j, m] <= 0.0:
            continue
        p_include = eigvals[m - 1] * table[j - 1, m - 1] / table[j, m]
        if rng.random() < p_include:
            chosen.append(m - 1)
            j -= 1
    if j != 0:
        raise RuntimeError("eigenvector subsampling failed to reach size k")
    return chosen


def _sample_from_projection(v: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Draw |columns(v)| items from the projection DPP spanned by v."""
    v = v.copy()
    picked: list[int] = []
    while v.shape[1] > 0:
        weights = np.sum(v ** 2, axis=1)
        probs = weights / weights.sum()
        item = int(rng.choice(len(probs), p=probs))
        picked.append(item)
        # Condition on the pick: remove the component along e_item, drop a column.
        col = int(np.argmax(np.abs(v[item, :])))
        pivot = v[:, col].copy()
        v = v - np.outer(pivot, v[item, :] / v[item, col])
        v = np.delete(v, col, axis=1)
        if v.shape[1] > 0:
            q, _ = np.linalg.qr(v)
            v = q
    return sorted(picked)
