"""A certificate that a list of picks is greedy MAP's on a kernel.

``certificate_problems`` replays ``greedy_map``'s full O(k N^2) downdate of
the residual kernel along the written picks, not along its own, and checks
each pick against the residuals at its step: it must hold the largest
remaining residual to ``TIE_RTOL`` times L's largest diagonal entry, and be
the lowest index among the residuals tied with the largest. It does not
compare gains, so it holds for any greedy that rounds otherwise than
``greedy_map``, as long as its picks follow the rule. ``assert_close_greedy``
compares a selection's picks, gains and logdet with ``greedy_map``'s.
"""

from __future__ import annotations

import math

import numpy as np

from qdreplay.kernels import EPS_PD, TIE_RTOL


def assert_close_greedy(selection, reference) -> None:
    """The same picks, and residuals (e^gain) and logdet within relative 1e-12: on
    pool-sized joint kernels no residual comes near the rounding of its diagonal entry."""
    assert selection.indices == reference.indices
    np.testing.assert_allclose(np.exp(selection.gains), np.exp(reference.gains), rtol=1e-12)
    assert math.isclose(selection.logdet, reference.logdet, rel_tol=1e-12)


def certificate_problems(kernel: np.ndarray, indices: list[int], k: int) -> list[str]:
    """Why ``indices`` are not a greedy MAP selection of size k on ``kernel``; empty if they are.

    A selection shorter than k must end where every remaining residual is at
    most ``EPS_PD``.
    """
    residual = np.array(kernel, dtype=float)
    scale = np.diagonal(residual).max()
    alive = np.ones(len(residual), dtype=bool)
    problems = []
    for step, j in enumerate(indices):
        diagonal = np.where(alive, np.diagonal(residual), -np.inf)
        top = diagonal.max()
        tied = np.flatnonzero(diagonal >= top - TIE_RTOL * scale)
        if not alive[j] or diagonal[j] <= EPS_PD:
            problems.append(f"pick {step} ({j}) has residual {diagonal[j]}")
            break
        if j not in tied:
            problems.append(f"pick {step} ({j}) has residual {diagonal[j]}, the largest is {top}")
        elif j != tied[0]:
            problems.append(f"pick {step} ({j}) is tied with the lower index {tied[0]}")
        col = residual[:, j].copy()
        residual -= np.outer(col, col) / diagonal[j]
        alive[j] = False
    if not problems and len(indices) < k:
        top = np.where(alive, np.diagonal(residual), -np.inf).max()
        if top > EPS_PD:
            problems.append(f"stopped after {len(indices)} picks with a residual of {top} left")
    return problems
