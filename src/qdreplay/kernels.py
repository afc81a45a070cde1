"""Quality-diversity joint kernel and k-DPP subset selection.

``JointKernel`` holds L's factors, the similarity, sqrt(quality) and lambda;
its one reader, ``entries``, is what greedy MAP, ``values`` (the N x N L,
built only when read) and ``kernel.csv`` read, so they agree bit for bit.
``fast_greedy_map`` serves production-size pools in O(k^2 N) time and O(k N)
memory beside the similarity, reading only L's diagonal and each pick's
column, one matrix-vector product per pick. It picks as the O(k N^2)
``greedy_map`` does, by ``_next_pick``'s tie rule, so rounding decides no
pick; that greedy, the exhaustive optimizer, exact subset probabilities and
the exact sampler are verification oracles, the last three behind size guards.
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
# Greedy candidates whose residual is within this much of the largest, relative
# to L's largest diagonal entry, are tied; the lowest index among them is picked.
TIE_RTOL = 1e-12


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


def _next_pick(residual: np.ndarray, scale: float) -> int | None:
    """Greedy MAP's next pick from the residual variances; picked entries hold -inf.

    Candidates within ``TIE_RTOL * scale`` of the largest residual tie, and
    the lowest index wins. ``scale``, L's largest diagonal entry, sets the
    size of every residual's rounding error, so residuals that differ only in
    rounding tie even far below their diagonal entries. None when greedy stops
    early (the largest residual is at most ``EPS_PD``); a NaN or infinite
    residual raises ValueError.
    """
    top = residual.max()
    if not top < math.inf:
        raise ValueError(f"greedy MAP met a residual variance of {top}")
    if top <= EPS_PD:
        return None
    return int(np.argmax(residual >= top - TIE_RTOL * scale))


def greedy_map(kernel: np.ndarray, k: int) -> SelectionResult:
    """Greedy MAP subset of size k by largest marginal log-det gain.

    Each step picks the candidate with the largest residual variance
    (the Schur complement of the current selection, log of which is the
    marginal gain), by ``_next_pick``'s tie rule, and downdates the full
    residual kernel, so a step costs O(N^2) and a full run O(k N^2). When
    every remaining residual is at most EPS_PD the selection stops early
    and fewer than k indices are returned.
    """
    values = np.asarray(kernel, dtype=float)
    n = values.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    residual = values.astype(float, copy=True)
    scale = np.diagonal(values).max()
    alive = np.ones(n, dtype=bool)
    indices: list[int] = []
    gains: list[float] = []
    for _ in range(k):
        diag = np.where(alive, np.diagonal(residual), -np.inf)
        j = _next_pick(diag, scale)
        if j is None:
            break
        gains.append(float(np.log(diag[j])))
        col = residual[:, j].copy()
        residual -= np.outer(col, col) / diag[j]
        alive[j] = False
        indices.append(j)
    return SelectionResult(indices=indices, gains=gains, logdet=float(sum(gains)))


def fast_greedy_map(kernel: JointKernel, k: int) -> SelectionResult:
    """Greedy MAP with ``greedy_map``'s picks, and its gains to rounding.

    The incremental-Cholesky greedy of Chen, Zhang & Zhou, "Fast Greedy MAP
    Inference for DPP" (NeurIPS 2018). It keeps the residual diagonal d and a
    k x N array C whose row t is pick t's normalized Cholesky row, never the
    N x N residual, so a run costs O(k^2 N) time and O(k N) memory. At pick t
    of j, ``C[t] = (L[:, j] - C[:t, j] @ C[:t]) / sqrt(d_j)``, one
    matrix-vector product, and ``d -= C[t] ** 2``. Of ``kernel``, ``entries``
    reads only the diagonal and the picks' columns, so L is never built; a
    plain matrix L goes in as ``build_joint_kernel(L, np.ones(n), 0.0)``,
    whose entries are L's bits. Picks follow ``_next_pick``'s tie rule, as in
    ``greedy_map``; the residuals round otherwise than there, so gains and
    logdet agree with ``greedy_map``'s to rounding, not bit for bit.
    """
    n = len(kernel.root_quality)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    every = np.arange(n)
    diagonal = kernel.entries(every, every)
    scale = diagonal.max()
    rows = np.empty((k, n))  # C
    indices: list[int] = []
    gains: list[float] = []
    for step in range(k):
        j = _next_pick(diagonal, scale)
        if j is None:
            break
        pivot = diagonal[j]
        gains.append(float(np.log(pivot)))
        row = np.subtract(kernel.entries(slice(None), j), rows[:step, j] @ rows[:step],
                          out=rows[step])
        row /= math.sqrt(pivot)
        diagonal -= np.square(row)
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
