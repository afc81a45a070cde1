"""Command-line entry points: batch selection, loop runs, ablation tables."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bench import (ABLATION_COLUMNS, LoopConfig, Variant, check_loop_config, mean_and_ci,
                    run_ablation, run_loop, select_windows)
# Unused here; the benchmark's tracer wraps these stage functions by name in this module too.
from .geometry import encode_pool, median_bandwidth, rbf_similarity  # noqa: F401
from .kernels import build_joint_kernel, greedy_map  # noqa: F401
from .replay import WeightMode
from .scoring import composite_quality  # noqa: F401
from .windows import (JsonlParseError, NoValidWindowsError, WindowBatch, load_jsonl,
                      undecodable_line)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    pass


# Every LoopConfig field is a config key of its annotated type; int and float
# keys parse directly, the others (sigma, steps_per_stage, weight_mode) by hand.
_FIELD_TYPES = get_type_hints(LoopConfig)
KNOWN_KEYS = set(_FIELD_TYPES) | {"seeds", "variant", "buffer", "out"}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Plain key = value lines; '#' starts a comment; unknown and repeated keys rejected."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        # read_text turns \r\n and \r into \n; splitlines would also break at \f and \v.
        lines = Path(path).read_text().split("\n")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno, reason = undecodable_line(path, exc.encoding)
        raise ConfigError(f"{path}:{lineno}: {reason}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} given twice "
                              f"(lines {first_line[key]} and {lineno})")
        raw[key] = value
        first_line[key] = lineno
    return raw


@dataclass
class RunSettings:
    loop: LoopConfig
    seeds: list[int]
    variant: Variant
    buffer: str | None
    out: Path

    def config_hash(self) -> str:
        loop = self.loop
        parts = [f"{name}={getattr(loop, name)!r}" for name in sorted(vars(loop))]
        parts.append(f"variant={self.variant.value}")
        parts.append(f"seeds={self.seeds}")
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:12]


def build_settings(raw: dict[str, str], args: argparse.Namespace) -> RunSettings:
    updates = {}
    for key, value in raw.items():
        if _FIELD_TYPES.get(key) in (int, float):
            updates[key] = _coerce(key, value, _FIELD_TYPES[key])
        elif key == "sigma":
            updates[key] = None if value.lower() == "median" else _coerce(key, value, float)
        elif key == "steps_per_stage":
            updates[key] = tuple(_coerce(key, part, int) for part in value.split(","))
        elif key == "weight_mode":
            try:
                updates[key] = WeightMode[value.upper()]
            except KeyError:
                raise ConfigError(f"weight_mode must be RAW or MEAN_ONE, got {value!r}")
    loop = LoopConfig(**updates)
    try:
        loop.validate()
        # select's episodes come from its dump, not from the loop's environment.
        if args.command != "select":
            check_loop_config(loop)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    seeds = [int(s) for s in args.seed] if args.seed else None
    if seeds is None and "seeds" in raw:
        try:
            seeds = [int(part) for part in raw["seeds"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"seeds must be comma-separated integers: {raw['seeds']!r}") from exc
    if seeds is None:
        seeds = [0]
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"seeds must be non-negative integers, got seed {seed}")
    listed = ", ".join(map(str, seeds))
    if args.command != "ablate" and len(seeds) > 1:
        raise ConfigError(f"{args.command} runs one seed, got seeds {listed}")
    if args.command == "ablate" and len(seeds) < 2:
        raise ConfigError("ablate needs at least 2 seeds (--seed, repeatable)")
    if len(set(seeds)) < len(seeds):  # only ablate runs more than one seed
        raise ConfigError(f"ablate needs distinct seeds, got seeds {listed}")

    variant_name = getattr(args, "variant", None) or raw.get("variant", "FULL")
    try:
        variant = Variant[variant_name.upper()]
    except KeyError:
        names = ", ".join(v.name for v in Variant)
        raise ConfigError(f"unknown variant {variant_name!r} (choose from {names})")
    if args.command in ("select", "ablate") and variant is not Variant.FULL:
        raise ConfigError(f"{args.command} takes no variant other than FULL, "
                          f"got variant {variant.name}")

    buffer = getattr(args, "buffer", None) or raw.get("buffer")
    out = Path(args.out or raw.get("out", "."))
    return RunSettings(loop=loop, seeds=seeds, variant=variant, buffer=buffer, out=out)


def _make_out_dir(settings: RunSettings) -> None:
    """Create the output directory, once every input check has passed."""
    try:
        settings.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {settings.out}: {exc}") from exc


def _coerce(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {kind.__name__}") from exc


def _provenance(settings: RunSettings, seed: int) -> str:
    return f"config_hash={settings.config_hash()} seed={seed}"


# ---------------------------------------------------------------------- select

def _draw_pool(settings: RunSettings, pool_rng: np.random.Generator) -> WindowBatch:
    """Load the dump, check it holds a window and draw the candidate pool from it.

    Only the pool is returned, so the dump's buffer is freed before the
    selection builds its N x N similarity.
    """
    if not settings.buffer:
        raise ConfigError("select needs a buffer path (positional argument or 'buffer' key)")
    loop = settings.loop
    try:
        buffer = load_jsonl(settings.buffer, gamma=loop.gamma)
    except OSError as exc:
        raise ConfigError(f"cannot read buffer file {settings.buffer}: {exc}") from exc
    if not buffer.window_count(loop.horizon):
        raise NoValidWindowsError(f"no valid windows: {settings.buffer} holds no episode "
                                  f"of length >= {loop.horizon}")
    return buffer.sample_candidate_pool(loop.pool_size, loop.horizon, pool_rng)


def cmd_select(settings: RunSettings, kernel_dump: bool) -> int:
    loop = settings.loop
    seed = settings.seeds[0]
    policy_ss, pool_ss = np.random.SeedSequence(seed).spawn(2)
    pool_rng = np.random.default_rng(pool_ss)
    pool = _draw_pool(settings, pool_rng)
    _make_out_dir(settings)
    policy = loop.make_policy(pool.states.shape[2], policy_ss)
    selection = select_windows(pool, policy, loop, Variant.FULL, pool_rng)
    chosen = selection.indices

    provenance = _provenance(settings, seed)
    selection_path = settings.out / "selection.json"
    payload = {
        "config_hash": settings.config_hash(),
        "seed": seed,
        "windows": [
            {"episode": episode, "start": start}
            for episode, start in zip(pool.episode_ids[chosen].tolist(),
                                      pool.starts[chosen].tolist())
        ],
        "indices": selection.indices,
        "gains": selection.gains,
        "logdet": selection.logdet,
    }
    selection_path.write_text(json.dumps(payload) + "\n")
    if kernel_dump:
        selection.kernel.write_csv(settings.out / "kernel.csv", header_comment=provenance)
    print(f"wrote {selection_path} ({len(selection.indices)} windows)")
    return EXIT_OK


# ------------------------------------------------------------------------ loop

_METRICS_COLUMNS = "variant,seed,step,success,diversity,redundancy,episodes,sampled_success"


def _metrics_row(variant: Variant, seed: int, point) -> str:
    return ",".join([
        variant.value, str(seed), str(point.gradient_steps),
        repr(point.success_rate), repr(point.diversity),
        repr(point.redundancy), str(point.episodes_used), repr(point.sampled_success),
    ])


def _line_writer(fh):
    """A writer of whole lines to ``fh``, each flushed, so a row lands as it is produced."""
    def write(line: str) -> None:
        fh.write(line + "\n")
        fh.flush()
    return write


def cmd_loop(settings: RunSettings) -> int:
    _make_out_dir(settings)
    seed = settings.seeds[0]
    provenance = _provenance(settings, seed)
    metrics_path = settings.out / "metrics.csv"
    audit_path = settings.out / "audit.jsonl"
    with open(metrics_path, "w") as metrics_fh, open(audit_path, "w") as audit_fh:
        write_metrics, write_audit = _line_writer(metrics_fh), _line_writer(audit_fh)
        write_metrics(f"# {provenance}\n{_METRICS_COLUMNS}")
        write_audit(json.dumps({"config_hash": settings.config_hash(), "seed": seed,
                                "variant": settings.variant.value}))
        run_loop(settings.loop, settings.variant, seed,
                 metrics_callback=lambda point: write_metrics(
                     _metrics_row(settings.variant, seed, point)),
                 audit_callback=lambda event: write_audit(json.dumps(event)))
    print(f"wrote {metrics_path} and {audit_path}")
    return EXIT_OK


# ---------------------------------------------------------------------- ablate

def cmd_ablate(settings: RunSettings) -> int:
    _make_out_dir(settings)
    provenance = f"config_hash={settings.config_hash()} seeds={','.join(map(str, settings.seeds))}"
    metrics_path = settings.out / "ablation_runs.csv"
    table_path = settings.out / "ablation.csv"
    with open(metrics_path, "w") as metrics_fh:
        write_metrics = _line_writer(metrics_fh)
        write_metrics(f"# {provenance}\n{_METRICS_COLUMNS}")
        columns = run_ablation(settings.loop, settings.seeds,
                               metrics_callback=lambda *row: write_metrics(_metrics_row(*row)))

    stats = {variant: [mean_and_ci(column[name]) for name in ABLATION_COLUMNS]
             for variant, column in columns.items()}
    header = ",".join(["variant", *(f"{name}_mean,{name}_ci" for name in ABLATION_COLUMNS)])
    with open(table_path, "w") as fh:
        fh.write(f"# {provenance}\n{header}\n")
        for variant, pairs in stats.items():
            fh.write(",".join([variant.value, *(f"{mean!r},{ci!r}" for mean, ci in pairs)]) + "\n")

    print(f"{'variant':<15}" + "".join(f" {name:>16}" for name in ABLATION_COLUMNS[:3]))
    for variant, pairs in stats.items():
        print(f"{variant.value:<15}"
              + "".join(f" {mean:>8.3f} ±{ci:<6.3f}" for mean, ci in pairs[:3]))
    print(f"wrote {table_path} and {metrics_path}")
    return EXIT_OK


# ------------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdreplay",
        description="Quality-diversity window selection and debiased mixed replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", action="append", type=int, help="seed (repeatable)")
        p.add_argument("--out", help="output directory (default '.')")

    p_select = sub.add_parser("select", help="score a stored buffer and select a subset")
    p_select.add_argument("buffer", nargs="?", help="JSON-lines transition dump")
    p_select.add_argument("--kernel-dump", action="store_true", help="also write kernel.csv")
    add_common(p_select)

    p_loop = sub.add_parser("loop", help="run the full selection-and-replay loop")
    p_loop.add_argument("--variant", help="FULL | QUALITY_ONLY | DIVERSITY_ONLY | UNIFORM")
    add_common(p_loop)

    p_ablate = sub.add_parser("ablate", help="run all variants over multiple seeds")
    add_common(p_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = parse_config_file(args.config) if args.config else {}
        settings = build_settings(raw, args)
        if args.command == "select":
            return cmd_select(settings, kernel_dump=args.kernel_dump)
        if args.command == "loop":
            return cmd_loop(settings)
        return cmd_ablate(settings)
    except (ConfigError, JsonlParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoValidWindowsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
