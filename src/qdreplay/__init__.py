"""Quality-diversity experience selection with k-DPPs and debiased mixed replay."""

from .bench import LoopConfig, StageChainEnv, Variant
from .geometry import RBFSimilarity, encode_pool, median_bandwidth, rbf_similarity
from .kernels import (
    build_joint_kernel,
    exhaustive_map,
    fast_greedy_map,
    greedy_map,
    kdpp_sample,
    kdpp_subset_probability,
)
from .policy import LinearSoftmaxPolicy
from .replay import WeightMode, mixed_sample, normalize_weights
from .scoring import QualityWeights, composite_quality
from .windows import Episode, EpisodeArrays, ReplayBuffer, load_jsonl, save_jsonl

__version__ = "0.1.0"

__all__ = [
    "Episode",
    "EpisodeArrays",
    "LinearSoftmaxPolicy",
    "LoopConfig",
    "QualityWeights",
    "RBFSimilarity",
    "ReplayBuffer",
    "StageChainEnv",
    "Variant",
    "WeightMode",
    "build_joint_kernel",
    "composite_quality",
    "encode_pool",
    "exhaustive_map",
    "fast_greedy_map",
    "greedy_map",
    "kdpp_sample",
    "kdpp_subset_probability",
    "load_jsonl",
    "median_bandwidth",
    "mixed_sample",
    "normalize_weights",
    "rbf_similarity",
    "save_jsonl",
]
