"""Synthetic staged-chain benchmark: orchestrator loop, variants, metrics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .geometry import encode_pool, median_bandwidth, pairwise_distances, rbf_similarity
from .kernels import (DEFAULT_LAMBDA, JointKernel, SelectionResult, build_joint_kernel,
                      fast_greedy_map, log_det)
from .kernels import greedy_map  # noqa: F401  perfbench/tracing.py wraps it by name here
from .policy import LinearSoftmaxPolicy
from .replay import WeightMode, mixed_sample, normalize_weights
from .scoring import QualityWeights, composite_quality
from .windows import Episode, EpisodeArrays, NoValidWindowsError, ReplayBuffer, WindowBatch

DIVERSITY_EPS = 1e-6


class Variant(Enum):
    FULL = "FULL"
    QUALITY_ONLY = "QUALITY_ONLY"
    DIVERSITY_ONLY = "DIVERSITY_ONLY"
    UNIFORM = "UNIFORM"


class StageChainEnv:
    """Sparse-reward chain of sub-task stages with skewed stage lengths.

    Each stage has one correct action; a correct executed action advances
    progress, anything else stalls. Actions slip to a uniform random action
    with probability ``noise``. Reward is 0 per step and 1 on completing the
    final stage; episodes cap at ``t_max`` steps. The final stage is kept
    deliberately short so it is rare in collected data.
    """

    def __init__(
        self,
        num_stages: int = 4,
        steps_per_stage: Sequence[int] = (12, 12, 12, 4),
        action_count: int = 6,
        noise: float = 0.1,
        t_max: int = 60,
    ):
        if len(steps_per_stage) != num_stages:
            raise ValueError("steps_per_stage must list one length per stage")
        if any(s < 1 for s in steps_per_stage):
            raise ValueError("stage lengths must be >= 1")
        if action_count < 2:
            raise ValueError("need at least two actions")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"action slip (noise) must be in [0, 1), got {noise}")
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.num_stages = int(num_stages)
        self.steps_per_stage = tuple(int(s) for s in steps_per_stage)
        self.action_count = int(action_count)
        self.noise = float(noise)
        self.t_max = int(t_max)
        # One-hot stage plus progress gated per stage; keeping the continuous
        # coordinate factored by stage lets a linear policy fit each stage
        # independently. All-zero marks the terminal (post-success) state.
        # Per chain position: its stage, that stage's correct action and one
        # read-only observation row, shared by every step there.
        chain = [(stage, progress / steps) for stage, steps in enumerate(self.steps_per_stage)
                 for progress in range(steps)]
        self._stages = [stage for stage, _ in chain]
        self._correct = [self.correct_action(stage) for stage in self._stages]
        rows = np.zeros((len(chain) + 1, self.state_dim))
        for position, (stage, fraction) in enumerate(chain):
            rows[position, stage] = 1.0
            rows[position, self.num_stages + stage] = fraction
        rows.flags.writeable = False
        self._observations = tuple(rows)
        self.position = 0  # index into chain_states(); len(chain_states()) after success
        self._t = 0

    @property
    def state_dim(self) -> int:
        return 2 * self.num_stages

    def correct_action(self, stage: int) -> int:
        return stage % self.action_count

    def observation(self) -> np.ndarray:
        """The current state: a read-only row shared by every step at this position."""
        return self._observations[self.position]

    def chain_states(self) -> tuple[np.ndarray, ...]:
        """Every state before success, in chain order: stage by stage, progress 0 up."""
        return self._observations[:-1]

    def success_probability(self, action_probs: np.ndarray) -> float:
        """Exact chance of success within ``t_max`` steps, by a forward pass over the chain.

        Row i of ``action_probs`` is the actor's action distribution at the
        i-th of ``chain_states()``, one-hot for a deterministic actor. A step
        there advances with probability (1 - noise) * action_probs[i, c] +
        noise / action_count, c being the stage's correct action, and stalls
        otherwise; success absorbs.
        """
        probs = np.asarray(action_probs, dtype=float)
        count = len(self._correct)
        if probs.shape != (count, self.action_count):
            raise ValueError(f"expected action rows of shape {(count, self.action_count)}, "
                             f"got {probs.shape}")
        advance = (1.0 - self.noise) * probs[np.arange(count), self._correct] \
            + self.noise / self.action_count
        mass = np.zeros(count + 1)  # over the chain states, then success
        mass[0] = 1.0
        for _ in range(self.t_max):
            moved = mass[:-1] * advance
            mass[:-1] -= moved
            mass[1:] += moved
        return float(mass[-1])

    def reset(self) -> np.ndarray:
        self.position = 0
        self._t = 0
        return self.observation()

    def step(self, action: int,
             rng: np.random.Generator) -> tuple[np.ndarray, float, bool, int, bool]:
        """Execute ``action``; returns (obs, reward, done, stage before the step, success)."""
        position = self.position
        if self._t >= self.t_max or position >= len(self._stages):
            raise RuntimeError("step() called on a finished episode")
        executed = int(action)
        if not 0 <= executed < self.action_count:
            raise ValueError(f"action {executed} outside [0, {self.action_count})")
        if self.noise > 0.0 and rng.random() < self.noise:
            executed = int(rng.integers(self.action_count))
        if executed == self._correct[position]:
            self.position += 1
        self._t += 1
        success = self.position == len(self._stages)
        done = success or self._t >= self.t_max
        reward = 1.0 if success else 0.0
        return self.observation(), reward, done, self._stages[position], success


class RandomPolicy:
    """Uniform-random actor satisfying the act() protocol used by rollouts."""

    def __init__(self, action_count: int):
        self.action_count = int(action_count)

    def act(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.action_count))


class ScriptedDemonstrator:
    """Noisy expert: correct action with probability 1 - epsilon, else random.

    Stand-in for pre-collected logs so sparse-reward learning has successful
    trajectories to condition on; identical across ablation variants.
    """

    def __init__(self, env: StageChainEnv, epsilon: float):
        self.env = env
        self.epsilon = float(epsilon)

    def act(self, rng: np.random.Generator) -> int:
        if rng.random() < self.epsilon:
            return int(rng.integers(self.env.action_count))
        stage = int(np.argmax(self.env.observation()[: self.env.num_stages]))
        return self.env.correct_action(stage)


class TableActor:
    """Acts from one softmax CDF row per chain position of ``env``.

    It reads ``env.position``, so it acts only in ``env``; its rows are a
    policy's ``action_table`` at one rtg, the ``rtg_target`` the table was
    built at. A row whose probabilities are not finite raises only when it
    is acted on. An action inverts the row at one ``rng.random()``, the draw
    ``rng.choice(action_count, p=probs)`` makes: the same action and the same
    generator state afterwards.
    """

    def __init__(self, env: StageChainEnv, cdf: np.ndarray):
        self.env = env
        self.cdf = cdf
        self.finite = np.isfinite(cdf).all(axis=1).tolist()

    def act(self, rng: np.random.Generator) -> int:
        position = self.env.position
        if not self.finite[position]:
            raise ValueError("action probabilities are not finite")
        return int(self.cdf[position].searchsorted(rng.random(), side="right"))


def rollout(env: StageChainEnv, actor, rng: np.random.Generator):
    """Run one episode; returns (its steps as ``EpisodeArrays``, success).

    ``actor.act(rng)`` picks each action from ``env``'s current state, which
    the actor reads from ``env`` itself, and the generator.
    """
    obs = env.reset()
    states, actions, rewards, stages = [], [], [], []
    while True:
        action = actor.act(rng)
        next_obs, reward, done, stage, reached = env.step(action, rng)
        states.append(obs)
        actions.append(action)
        rewards.append(reward)
        stages.append(stage)
        obs = next_obs
        if done:  # success ends the episode, so only the last step can reach it
            last = np.arange(len(rewards)) == len(rewards) - 1
            return EpisodeArrays(np.array(states), np.array(actions), np.array(rewards),
                                 np.array(stages), last), reached


def evaluate_policy(env: StageChainEnv, greedy: np.ndarray,
                    cdf: np.ndarray) -> tuple[float, float]:
    """Exact success probabilities of the greedy and of the sampled policy.

    ``greedy`` and ``cdf`` are a policy's ``action_table`` over ``env``'s
    chain states at the one rtg its rollouts act at: the greedy actor takes
    each row's argmax, the sampled one the softmax whose CDF a ``TableActor``
    inverts.
    """
    if not np.isfinite(cdf).all():
        raise ValueError("action probabilities are not finite")
    return (env.success_probability(np.eye(env.action_count)[greedy]),
            env.success_probability(np.diff(cdf, axis=1, prepend=0.0)))


def diversity_metric(similarity_subset: np.ndarray) -> float:
    """Per-item geometric-mean volume of the selected similarity submatrix.

    det(S_Y + eps*I)^(1/|Y|): 1 for mutually orthogonal selections, toward 0
    as the selection accumulates duplicates.
    """
    s = np.asarray(similarity_subset, dtype=float)
    m = s.shape[0]
    if m == 0:
        raise ValueError("selection must be non-empty")
    ld = log_det(s + DIVERSITY_EPS * np.eye(m))
    if ld == -math.inf:
        return 0.0
    return float(math.exp(ld / m))


def redundancy_metric(embeddings: np.ndarray, tau: float) -> float:
    """Fraction of selected windows whose nearest selected neighbor is within tau."""
    z = np.asarray(embeddings, dtype=float)
    if z.shape[0] < 2:
        return 0.0
    d = pairwise_distances(z)
    np.fill_diagonal(d, np.inf)
    return float(np.mean(d.min(axis=1) <= tau))


@dataclass
class LoopConfig:
    """Knobs of the selection-and-replay loop plus the synthetic environment.

    Defaults keep the subset ratio and mix ratio inside the regime where
    selection behavior is stable (subset_size/pool_size around 0.15, eta 0.7)
    and refresh selection every 500 gradient steps. ``eval_episodes`` is
    validated but unused: evaluation computes success exactly instead of
    sampling episodes.
    """

    horizon: int = 8
    pool_size: int = 40
    subset_size: int = 6
    refresh_period: int = 500
    eta: float = 0.7
    batch_size: int = 32
    alpha: float = 0.4
    beta: float = 0.3
    zeta: float = 0.3
    sigma: float | None = None           # None = median-of-pairwise-distances
    lam: float = DEFAULT_LAMBDA
    passes: int = 5
    gamma: float = 1.0
    episodes: int = 300
    warmup_episodes: int = 60
    demo_epsilon: float = 0.2
    pretrain_steps: int = 800
    updates_per_episode: int = 4
    eval_every: int = 50
    eval_episodes: int = 200
    learning_rate: float = 1e-3
    feature_dim: int = 16
    dropout_rate: float = 0.2
    capacity: int = 100_000
    weight_mode: WeightMode = WeightMode.MEAN_ONE
    smoothing_alpha: float = 1.0
    rtg_target: float = 1.0
    num_stages: int = 4
    steps_per_stage: tuple = (12, 12, 12, 4)
    action_count: int = 6
    slip: float = 0.1
    t_max: int = 60

    def validate(self) -> None:
        if self.horizon < 1 or self.pool_size < 1 or self.batch_size < 1:
            raise ValueError("horizon, pool_size and batch_size must be >= 1")
        if not 1 <= self.subset_size <= self.pool_size:
            raise ValueError("subset_size must be in [1, pool_size]")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0, 1]")
        if self.passes < 2:
            raise ValueError("passes must be >= 2")
        if self.episodes < 1 or self.updates_per_episode < 1:
            raise ValueError("episodes and updates_per_episode must be >= 1")
        if self.eval_every < 1 or self.eval_episodes < 1:
            raise ValueError("eval_every and eval_episodes must be >= 1")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be median or finite and > 0, got {self.sigma}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0.0 <= self.demo_epsilon <= 1.0:
            raise ValueError(f"demo_epsilon must be in [0, 1], got {self.demo_epsilon}")
        if self.feature_dim < 1 or self.capacity < 1:
            raise ValueError("feature_dim and capacity must be >= 1")
        if not 0.0 <= self.smoothing_alpha < math.inf:
            raise ValueError(
                f"smoothing_alpha must be finite and >= 0, got {self.smoothing_alpha}")
        if not math.isfinite(self.rtg_target):
            raise ValueError(f"rtg_target must be finite, got {self.rtg_target}")
        if self.warmup_episodes < 0 or self.pretrain_steps < 0:
            raise ValueError("warmup_episodes and pretrain_steps must be >= 0")
        self.quality_weights()
        self.make_env()  # the environment's own parameter checks

    def quality_weights(self) -> QualityWeights:
        return QualityWeights(self.alpha, self.beta, self.zeta)

    def make_env(self) -> StageChainEnv:
        return StageChainEnv(
            num_stages=self.num_stages,
            steps_per_stage=self.steps_per_stage,
            action_count=self.action_count,
            noise=self.slip,
            t_max=self.t_max,
        )

    def make_policy(self, state_dim: int, seed) -> LinearSoftmaxPolicy:
        return LinearSoftmaxPolicy(state_dim=state_dim, action_count=self.action_count,
                                   feature_dim=self.feature_dim, dropout_rate=self.dropout_rate,
                                   seed=seed)


def check_loop_config(config: LoopConfig) -> None:
    """Reject a loop whose episodes cannot hold a window or whose buffer cannot hold an episode."""
    if config.horizon > config.t_max:
        raise ValueError(f"horizon ({config.horizon}) must be <= t_max ({config.t_max}): "
                         "no episode is long enough for one window")
    if config.capacity < config.t_max:
        raise ValueError(f"capacity ({config.capacity}) must be >= t_max ({config.t_max}): "
                         "the buffer must hold a whole episode")


@dataclass
class WindowSelection(SelectionResult):
    """One run of the selection pipeline: the chosen pool positions and its inputs.

    ``gains`` are greedy MAP's marginal log-det gains, empty for a selection
    not made by greedy MAP; ``logdet`` is the selection's log-det on ``kernel``.
    """

    pool: WindowBatch
    embeddings: np.ndarray  # (N, d)
    kernel: JointKernel  # L as its factors, the RBF similarity among them; ``.values`` builds L
    median_distance: float  # median_bandwidth of the pool, whatever sigma was used


def select_windows(pool: WindowBatch, policy: LinearSoftmaxPolicy, config: LoopConfig,
                   variant: Variant, pool_rng: np.random.Generator,
                   score_rng: np.random.Generator) -> WindowSelection:
    """Select up to ``subset_size`` windows of a candidate pool.

    The caller draws the pool with ``ReplayBuffer.sample_candidate_pool``
    from ``pool_rng``, so a caller that holds the buffer only for that draw
    can let it go before the N x N stages. Embeddings -> RBF similarity
    (median bandwidth unless ``sigma`` is set) -> composite quality -> joint
    kernel -> selection. The pairwise distances are computed once, read for
    the median, and turned into the similarity in place, the one N x N array
    of the selection. FULL and DIVERSITY_ONLY select by greedy MAP, which
    reads the kernel one column at a time, QUALITY_ONLY takes the stable
    top-k by quality, and UNIFORM picks uniformly at random from ``pool_rng``
    after the pool draw; their logdet reads only the picks' block of the
    kernel.
    DIVERSITY_ONLY and UNIFORM use unit quality, so only FULL and
    QUALITY_ONLY draw a scoring seed from ``score_rng``.
    """
    embeddings = encode_pool(pool, policy)
    distances = pairwise_distances(embeddings)
    median = median_bandwidth(embeddings, distances=distances)
    sigma = config.sigma if config.sigma is not None else median
    similarity = rbf_similarity(embeddings, sigma, distances=distances)  # in place
    if variant in (Variant.DIVERSITY_ONLY, Variant.UNIFORM):
        quality = np.ones(len(pool))
    else:
        quality = composite_quality(
            pool,
            config.quality_weights(),
            policy,
            passes=config.passes,
            gamma=config.gamma,
            seed=int(score_rng.integers(2 ** 31)),
            smoothing_alpha=config.smoothing_alpha,
        ).composite
    kernel = build_joint_kernel(similarity, quality, config.lam)
    k = min(config.subset_size, len(pool))
    if variant is Variant.QUALITY_ONLY:
        indices = np.argsort(-quality, kind="stable")[:k].tolist()
    elif variant is Variant.UNIFORM:
        indices = pool_rng.choice(len(pool), size=k, replace=False).tolist()
    else:
        greedy = fast_greedy_map(kernel, k)
        return WindowSelection(greedy.indices, greedy.gains, greedy.logdet,
                               pool, embeddings, kernel, median)
    picks = np.asarray(indices)
    return WindowSelection(indices, [], log_det(kernel.entries(picks[:, None], picks)),
                           pool, embeddings, kernel, median)


@dataclass
class RunMetrics:
    gradient_steps: int
    episodes_used: int
    success_rate: float  # exact success probability of the greedy policy
    diversity: float
    redundancy: float
    sampled_success: float  # exact success probability of the policy's sampled actions


@dataclass
class RunResult:
    variant: Variant
    seed: int
    metrics: list[RunMetrics]
    selection_events: list[dict]
    selected_stage_counts: Counter = field(default_factory=Counter)


def run_loop(
    config: LoopConfig,
    variant: Variant,
    seed: int,
    metrics_callback: Callable[[RunMetrics], None] | None = None,
    audit_callback: Callable[[dict], None] | None = None,
) -> RunResult:
    """Collect / refresh-select / mixed-replay / update until the episode budget ends.

    FULL selects via greedy MAP on the quality-diversity kernel;
    QUALITY_ONLY takes the top-q windows by quality; DIVERSITY_ONLY
    gives every window equal quality before the kernel; UNIFORM performs no
    selection, so every batch is a plain uniform replay with unit weights.
    Selection refreshes when no selection exists yet, when eviction has
    emptied it (a fresh one keeps a window), or at gradient steps divisible
    by the refresh period. UNIFORM's diversity and redundancy (and
    stage counts) come from a seeded uniform pseudo-selection of the same
    size, drawn at metric time: what uniform replay would have put forward.
    Fully deterministic per (config, seed).
    """
    config.validate()
    check_loop_config(config)
    ss = np.random.SeedSequence(seed)
    # Evaluation is exact and draws nothing: eval_ss is spawned so pseudo_ss keeps its seed.
    (policy_ss, warmup_ss, pretrain_ss, collect_ss, pool_ss, score_ss,
     replay_ss, eval_ss, pseudo_ss) = ss.spawn(9)

    env = config.make_env()
    policy = config.make_policy(env.state_dim, policy_ss)
    buffer = ReplayBuffer(capacity=config.capacity, gamma=config.gamma)

    warmup_rng = np.random.default_rng(warmup_ss)
    demonstrator = ScriptedDemonstrator(env, config.demo_epsilon)
    for _ in range(config.warmup_episodes):
        transitions, _ = rollout(env, demonstrator, warmup_rng)
        buffer.append_episode(Episode(id=buffer.new_episode_id(), transitions=transitions))

    # Pretraining pass on the warm-start logs, identical for every variant, so
    # online collection starts from a competent policy instead of cloning noise.
    pretrain_rng = np.random.default_rng(pretrain_ss)
    warm_count = buffer.window_count(config.horizon)
    if warm_count:
        unit = np.ones(config.batch_size)
        for _ in range(config.pretrain_steps):
            picks = pretrain_rng.integers(0, warm_count, size=config.batch_size)
            policy.weighted_update(buffer.gather(picks, config.horizon), unit,
                                   config.learning_rate)

    collect_rng = np.random.default_rng(collect_ss)
    pool_rng = np.random.default_rng(pool_ss)
    score_rng = np.random.default_rng(score_ss)
    replay_rng = np.random.default_rng(replay_ss)
    pseudo_rng = np.random.default_rng(pseudo_ss)

    result = RunResult(variant=variant, seed=seed, metrics=[], selection_events=[])
    eta = 0.0 if variant is Variant.UNIFORM else config.eta
    selection: WindowSelection | None = None  # the one trained on; UNIFORM has none
    y_ids = np.zeros(0, dtype=np.int64)  # the selection's window ids in the buffer
    grad_step = 0

    def select(rng: np.random.Generator) -> WindowSelection:
        pool = buffer.sample_candidate_pool(config.pool_size, config.horizon, rng)
        made = select_windows(pool, policy, config, variant, rng, score_rng)
        result.selected_stage_counts.update(made.pool.stage_labels[made.indices].tolist())
        return made

    def selection_global_ids() -> np.ndarray:
        pool, chosen = selection.pool, selection.indices
        return buffer.window_ids(pool.episode_ids[chosen], pool.starts[chosen], config.horizon)

    # Online rollouts act only on the chain states, at rtg_target: their
    # features are projected once, and one table per policy state serves the
    # next rollout and any evaluation.
    chain_features = np.array([policy.state_features(s, config.rtg_target)
                               for s in env.chain_states()])
    greedy, cdf = policy.action_table(chain_features)
    for ep in range(config.episodes):
        transitions, _ = rollout(env, TableActor(env, cdf), collect_rng)
        buffer.append_episode(Episode(id=buffer.new_episode_id(), transitions=transitions))
        window_count = buffer.window_count(config.horizon)
        if not window_count:
            raise NoValidWindowsError(
                f"no valid windows: no stored episode has length >= {config.horizon}")
        if selection is not None:
            y_ids = selection_global_ids()  # eviction drops windows and shifts ids

        for _ in range(config.updates_per_episode):
            if variant is not Variant.UNIFORM and (
                    selection is None or grad_step % config.refresh_period == 0 or not y_ids.size):
                selection = select(pool_rng)
                y_ids = selection_global_ids()
                event = {"step": grad_step, "Y": y_ids.tolist(), "logdet": float(selection.logdet)}
                result.selection_events.append(event)
                if audit_callback:
                    audit_callback(event)
            ids, weights = mixed_sample(y_ids, window_count, config.batch_size, eta, replay_rng)
            policy.weighted_update(buffer.gather(ids, config.horizon),
                                   normalize_weights(weights, config.weight_mode),
                                   config.learning_rate)
            grad_step += 1

        greedy, cdf = policy.action_table(chain_features)
        if (ep + 1) % config.eval_every == 0:
            success, sampled_success = evaluate_policy(env, greedy, cdf)
            diversity, redundancy = _selection_quality_metrics(
                select(pseudo_rng) if variant is Variant.UNIFORM else selection)
            point = RunMetrics(
                gradient_steps=grad_step,
                episodes_used=ep + 1,
                success_rate=success,
                diversity=diversity,
                redundancy=redundancy,
                sampled_success=sampled_success,
            )
            result.metrics.append(point)
            if metrics_callback:
                metrics_callback(point)

    return result


def _selection_quality_metrics(selection: WindowSelection) -> tuple[float, float]:
    """Diversity and redundancy of a selection within its pool."""
    chosen = selection.indices
    sub = selection.kernel.similarity[np.ix_(chosen, chosen)]
    tau = 0.1 * selection.median_distance
    return diversity_metric(sub), redundancy_metric(selection.embeddings[chosen], tau)


ABLATION_COLUMNS = ("success", "redundancy", "diversity", "rare_stage", "sampled_success")


def mean_and_ci(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 1.96 * standard error of ``values``; the ci is 0.0 below two values."""
    arr = np.asarray(values, dtype=float)
    ci = float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size >= 2 else 0.0
    return float(np.mean(arr)), ci


def run_ablation(
    config: LoopConfig,
    seeds: Sequence[int],
    metrics_callback: Callable[[Variant, int, RunMetrics], None] | None = None,
) -> dict[Variant, dict[str, list[float]]]:
    """Run every variant on every seed; per variant, one value per seed in each column.

    ``success`` and ``sampled_success`` are the last evaluation's, ``redundancy``
    and ``diversity`` the means over the evaluations, and ``rare_stage`` the
    final stage's share of every selected window. A run with no evaluation, or no
    selected window, reads 0.0.
    """
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"ablation needs distinct seeds, got seeds {seeds}")
    rare_stage = config.num_stages - 1
    columns: dict[Variant, dict[str, list[float]]] = {}
    for variant in Variant:
        columns[variant] = {name: [] for name in ABLATION_COLUMNS}
        for seed in seeds:
            result = run_loop(config, variant, seed, metrics_callback=partial(
                metrics_callback, variant, seed) if metrics_callback else None)
            metrics, stages = result.metrics, result.selected_stage_counts
            selected = sum(stages.values())
            values = {
                "success": metrics[-1].success_rate if metrics else 0.0,
                "redundancy": float(np.mean([m.redundancy for m in metrics])) if metrics else 0.0,
                "diversity": float(np.mean([m.diversity for m in metrics])) if metrics else 0.0,
                "rare_stage": stages[rare_stage] / selected if selected else 0.0,
                "sampled_success": metrics[-1].sampled_success if metrics else 0.0,
            }
            for name, value in values.items():
                columns[variant][name].append(value)
    return columns
