"""Per-step reference for the rollout tests.

``rollout`` here keeps each step's observation row and stacks them with
``np.array``, ``TableActor`` inverts its CDF row with ``searchsorted`` and
``ScriptedDemonstrator`` finds its stage by ``np.argmax`` over the one-hot
part of the observation. ``qdreplay.bench`` must give the same episodes, the
same success flags and the same generator states for every env and seed.
"""

from __future__ import annotations

import numpy as np

from qdreplay.bench import StageChainEnv
from qdreplay.windows import EpisodeArrays


class ScriptedDemonstrator:
    """Correct action with probability 1 - epsilon, else a uniform one."""

    def __init__(self, env: StageChainEnv, epsilon: float):
        self.env = env
        self.epsilon = float(epsilon)

    def act(self, rng: np.random.Generator) -> int:
        if rng.random() < self.epsilon:
            return int(rng.integers(self.env.action_count))
        stage = int(np.argmax(self.env.observation()[: self.env.num_stages]))
        return self.env.correct_action(stage)


class TableActor:
    """Acts from one softmax CDF row per chain position of ``env``."""

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
    """Run one episode; returns (its steps as ``EpisodeArrays``, success)."""
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
        if done:
            last = np.arange(len(rewards)) == len(rewards) - 1
            return EpisodeArrays(np.array(states), np.array(actions), np.array(rewards),
                                 np.array(stages), last), reached
