"""Quality-diversity joint kernel and k-DPP subset selection.

``JointKernel`` holds L's factors, the similarity, sqrt(quality) and lambda,
and builds the N x N L only when ``values`` is read. ``fast_greedy_map``
takes a ``JointKernel`` and serves production-size pools in O(k^2 N) time and
O(k N) memory beside the similarity: it reads L's diagonal and the column of
each pick, each entry by ``build_joint_kernel``'s arithmetic, and builds each
pick's residual column as one row reduction over the kernel column and the
earlier picks' downdate terms, O(k) numpy calls per run. A plain L goes in as
``build_joint_kernel(L, np.ones(n), 0.0)``, whose entries are L's bits. The
O(k N^2) ``greedy_map`` it reproduces bit for bit, the exhaustive optimizer,
exact subset probabilities and the exact sampler are verification oracles;
the last three are shipped behind size guards.
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


@dataclass
class JointKernel:
    """L = diag(sqrt q) S diag(sqrt q) + lam I, kept as its factors.

    ``similarity`` is held, not copied, and must not change while the kernel
    is in use. Every entry of L that is read is computed as
    ``(sqrt(q_i) * S_ij) * sqrt(q_j)``, plus ``lam`` on the diagonal.
    """

    similarity: np.ndarray
    root_quality: np.ndarray
    lam: float

    @property
    def values(self) -> np.ndarray:
        """L as a new N x N array, built at each read."""
        return _joint_values(self.similarity, self.root_quality, self.lam)

    def submatrix(self, indices: Sequence[int]) -> np.ndarray:
        """L's rows and columns at ``indices`` (distinct), without building L."""
        idx = np.asarray(indices, dtype=np.int64)
        return _joint_values(self.similarity[np.ix_(idx, idx)], self.root_quality[idx], self.lam)

    def diagonal(self) -> np.ndarray:
        """L's diagonal as a new array."""
        root = self.root_quality
        return root * np.diagonal(self.similarity) * root + self.lam

    def column(self, j: int, out: np.ndarray) -> np.ndarray:
        """Write L's column j into ``out`` and return it."""
        np.multiply(self.root_quality, self.similarity[:, j], out=out)
        out *= self.root_quality[j]
        out[j] += self.lam
        return out

    def write_csv(self, path: str | Path, header_comment: str | None = None) -> None:
        """Row-major dump preceded by a one-line (N, lambda) header."""
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow([len(self.root_quality), repr(float(self.lam))])
            for row in self.values:
                writer.writerow([repr(float(x)) for x in row])


def _joint_values(similarity: np.ndarray, root: np.ndarray, lam: float) -> np.ndarray:
    values = root[:, None] * similarity
    values *= root[None, :]
    values[np.diag_indices_from(values)] += lam
    return values


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
    if np.any(q <= 0):
        raise ValueError("quality scores must be strictly positive (floor upstream)")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return JointKernel(similarity=s, root_quality=np.sqrt(q), lam=float(lam))


def log_det(kernel: np.ndarray, subset: Sequence[int]) -> float:
    """log det of the principal submatrix, by LAPACK's Cholesky factorization.

    Returns 0 for the empty subset, and -inf when the factorization fails
    (the submatrix is not positive definite) or a squared pivot falls at or
    below the singularity threshold; otherwise the sum of the logs of the
    squared pivots.
    """
    values = np.asarray(kernel, dtype=float)
    idx = list(subset)
    if len(idx) == 0:
        return 0.0
    if len(set(idx)) != len(idx) or min(idx) < 0 or max(idx) >= values.shape[0]:
        raise ValueError(f"invalid subset {idx} for kernel of size {values.shape[0]}")
    try:
        factor = np.linalg.cholesky(values[np.ix_(idx, idx)])
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
    costs O(k^2 N) time and O(k N) memory. Of ``kernel`` only the diagonal and
    the picks' columns are computed, so L is never built; a plain matrix L goes
    in as ``build_joint_kernel(L, np.ones(n), 0.0)``. A step picks as
    ``greedy_map`` does and downdates the diagonal by the pick's residual
    column. That column is one ``np.subtract.reduce`` down the rows of a work
    buffer: row 0 is the kernel column, rows 1..t the earlier picks' downdate
    terms ``columns[s] * columns[s, j] / pivots[s]``, made by one (t, N)
    multiply and divide. The reduction subtracts them in row order, so every entry
    ``greedy_map`` reads gets the same floating-point operations in the same
    order, at O(k) numpy calls per run; the normalized Cholesky form
    (``C[:t, j] @ C[:t]``) would round differently.
    """
    diagonal = kernel.diagonal()
    n = diagonal.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    columns = np.empty((k, n))  # residual column of each pick, when it was picked
    pivots = np.empty(k)
    work = np.empty((k, n))  # kernel column, then one downdate term per earlier pick
    alive = np.ones(n, dtype=bool)
    indices: list[int] = []
    gains: list[float] = []
    for step in range(k):
        diag = np.where(alive, diagonal, -np.inf)
        j = int(np.argmax(diag))
        if diag[j] <= EPS_PD:
            break
        gains.append(float(np.log(diag[j])))
        kernel.column(j, work[0])
        terms = work[1:step + 1]
        np.multiply(columns[:step], columns[:step, j, None], out=terms)
        terms /= pivots[:step, None]
        col = np.subtract.reduce(work[:step + 1], axis=0)
        columns[step], pivots[step] = col, diag[j]
        diagonal -= (col * col) / diag[j]
        alive[j] = False
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
        ld = log_det(values, subset)
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
