"""Command-line entry points for reproducible desk-scale experiments.

Subcommands: gen-data, train, eval, pilot, gradcheck. Every command is
deterministic given its config file, flag overrides (flags win), and
seeds. The VIEWPILOT_OUT environment variable overrides the configured
output directory; explicit --out flags win over both.

Exit codes: 0 success, 1 gradient check failed, 2 usage, 3 I/O (including a
malformed data or checkpoint file), 4 configuration, 5 numerics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from .agent import ModelDims, initial_state, load_model_checkpoint, pilot_step, write_trajectory
from .config import RunConfig, apply_overrides, load_run_config
from .errors import ConfigError, InvalidInput, NumericsError, ParseError, PilotError
from .gradcheck import MODES, check_model, check_trajectory_loss
from .observation import generate_dataset, load_episodes, save_episodes, stream_episodes
from .training import train

EXIT_OK = 0
EXIT_GRADCHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4
EXIT_NUMERICS = 5

ENV_OUT_DIR = "VIEWPILOT_OUT"


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    if args.set:
        config = apply_overrides(config, args.set)
    return config


def _out_dir(config: RunConfig) -> Path:
    return Path(os.environ.get(ENV_OUT_DIR, config.paths.out_dir))


def _check_episode_dims(found, dims: ModelDims, against: str) -> None:
    """Refuse (exit 4) episodes whose per-slot dims d/k/n, one tuple each
    in ``found``, differ from ``dims``. Swapped d and k keep the selector's
    input width, so nothing later catches the mismatch cleanly."""
    want = (dims.appearance_dim, dims.motion_bins, dims.slots)
    for got in found:
        if got != want:
            raise ConfigError(f"episode dims d/k/n {got} do not match {against} {want}")


def _slot_dims(episodes) -> list[tuple[int, int, int]]:
    return [(ep.appearance.shape[2], ep.motions.shape[2], ep.scores.shape[1]) for ep in episodes]


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    scene = config.scene
    seed = config.data.seed if args.seed is None else args.seed
    count = config.data.train_count if args.count is None else args.count
    episodes = generate_dataset(scene, seed, count)
    save_episodes(episodes, args.out)
    frames = sum(len(ep) for ep in episodes)
    top_rate = (
        float(np.mean([i == 0 for ep in episodes for i in ep.gt_object_index]))
        if episodes
        else 0.0
    )
    print(
        f"wrote {count} episodes ({frames} frames, {scene.objects} objects, "
        f"{scene.slots} slots) to {args.out}; main object holds the top score "
        f"on {top_rate:.1%} of frames"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    episodes = load_episodes(args.data)
    _check_episode_dims(_slot_dims(episodes), config.dims(), "the config's")
    train_cfg = config.train
    if args.epochs is not None:
        import dataclasses

        train_cfg = dataclasses.replace(train_cfg, max_epochs=args.epochs)
    out_dir = Path(args.out) if args.out else _out_dir(config) / "train"
    log = None if args.quiet else lambda rec: print(json.dumps(rec))
    model, history = train(
        episodes, train_cfg, config.dims(), out_dir, resume=args.resume, log=log
    )
    print(f"trained {len(history)} epochs; checkpoints and metrics.jsonl in {out_dir}")
    return EXIT_OK


def write_benchmark(path, rows: list[evaluation.BenchmarkRow], details: list[dict]) -> None:
    """JSON-lines benchmark output: aggregate rows then detail records."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(
                json.dumps(
                    {
                        "record": "method",
                        "method": row.method,
                        "mo": row.mo,
                        "mvd": row.mvd,
                        "mvd_units": "degrees/frame",
                        "episodes": row.episodes,
                    }
                )
                + "\n"
            )
        for rec in details:
            fh.write(json.dumps({"record": "episode", **rec}) + "\n")


def format_benchmark(rows: list[evaluation.BenchmarkRow]) -> str:
    lines = [f"{'method':<16} {'MO':>7} {'MVD (deg/frame)':>16} {'episodes':>9}"]
    for row in rows:
        lines.append(f"{row.method:<16} {row.mo:>7.3f} {row.mvd:>16.3f} {row.episodes:>9}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    config = _load_config(args)
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [n for n in names if n not in evaluation.METHOD_NAMES]
    if unknown or not names:
        problem = f"unknown methods {unknown}" if unknown else "no methods given"
        print(f"{problem}; valid methods: {', '.join(evaluation.METHOD_NAMES)}", file=sys.stderr)
        return EXIT_USAGE
    if "offline_dp" in names:
        try:
            evaluation.check_grid_step(config.eval.grid_step)
        except InvalidInput as exc:
            raise ConfigError(exc) from None
    episodes = load_episodes(args.data)
    model = None
    checkpoint_id = "none"
    if {"agent", "selector_only"} & set(names):
        if not args.checkpoint:
            print("--checkpoint is required for agent/selector_only methods", file=sys.stderr)
            return EXIT_USAGE
        model, ckpt = load_model_checkpoint(args.checkpoint, expect_dims=config.dims())
        _check_episode_dims(_slot_dims(episodes), model.dims, "the checkpoint's")
        checkpoint_id = ckpt.digest
    methods = evaluation.build_methods(
        names,
        model=model,
        grid_step=config.eval.grid_step,
        dp_smooth_weight=config.eval.dp_smooth_weight,
        eta=config.train.eta,
    )
    rows, details = evaluation.benchmark(methods, episodes, h_span=config.eval.h_span)
    print(f"checkpoint: {checkpoint_id}")
    print(format_benchmark(rows))
    if args.out:
        write_benchmark(args.out, rows, details)
        print(f"wrote benchmark records to {args.out}")
    return EXIT_OK


def cmd_pilot(args) -> int:
    model, ckpt = load_model_checkpoint(args.checkpoint, expect_dims=None)
    with open(args.out, "w", encoding="utf-8") as out_fh:
        for index, (header, frames) in enumerate(stream_episodes(args.data)):
            found = [(header["d"], header["k"], header["n"])]
            _check_episode_dims(found, model.dims, "the checkpoint's")

            def records():
                state = None
                for t, (frame, gt, _) in enumerate(frames):
                    if state is None:
                        state = initial_state(model, gt)
                    angle, selected, state = pilot_step(frame, state, model)
                    yield t, angle, selected

            write_trajectory(None, records(), ckpt.digest, episode_index=index, fh=out_fh)
    print(f"piloted episodes from {args.data} into {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    config = _load_config(args)
    tolerance = args.tolerance
    failures = []
    for seed in range(args.seeds):
        for mode in MODES:
            result = check_model(
                mode,
                seed,
                tolerance=tolerance,
                corrupt=args.corrupt if mode == args.corrupt_mode else None,
            )
            name, err = result.worst
            status = "pass" if result.passed else "FAIL"
            print(f"{mode}@seed{seed}: {status} (worst {name} rel err {err:.3g})")
            if not result.passed:
                failures.append(f"{mode}@seed{seed}:{name}")
        result = check_trajectory_loss(seed, tolerance=tolerance)
        name, err = result.worst
        status = "pass" if result.passed else "FAIL"
        print(f"trajectory_loss@seed{seed}: {status} (worst {name} rel err {err:.3g})")
        if not result.passed:
            failures.append(f"trajectory_loss@seed{seed}")
    if failures:
        print(f"gradient check FAILED: {failures}", file=sys.stderr)
        return EXIT_GRADCHECK_FAILED
    print(f"all gradient checks passed at tolerance {tolerance}")
    return EXIT_OK


def _positive(kind):
    """An argparse type: a finite value of ``kind`` above zero."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewpilot",
        description="Online viewport piloting for 360-degree video at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one configuration value (repeatable; flags win)",
        )

    p = sub.add_parser("gen-data", help="generate a synthetic episode dataset")
    common(p)
    p.add_argument("--seed", type=int, help="dataset seed (default from config)")
    p.add_argument("--count", type=_positive(int), help="number of episodes (default from config)")
    p.add_argument("--out", required=True, help="output episode file")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the pilot agent")
    common(p)
    p.add_argument("--data", required=True, help="training episode file")
    p.add_argument("--out", help="output directory (default <out_dir>/train)")
    p.add_argument("--epochs", type=int, help="override train.max_epochs")
    p.add_argument("--resume", action="store_true", help="resume from the newest good checkpoint")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch metric lines")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="benchmark methods on a test set")
    common(p)
    p.add_argument("--data", required=True, help="test episode file")
    p.add_argument("--checkpoint", help="model checkpoint (needed for agent/selector_only)")
    p.add_argument(
        "--methods",
        default="agent,selector_only,center_hold,greedy_salient,offline_dp",
        help=f"comma-separated subset of: {', '.join(evaluation.METHOD_NAMES)}",
    )
    p.add_argument("--out", help="write JSON-lines benchmark records here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pilot", help="stream a checkpointed agent over an episode file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="episode file to pilot")
    p.add_argument("--out", required=True, help="output trajectory file")
    p.set_defaults(func=cmd_pilot)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    common(p)
    p.add_argument("--seeds", type=_positive(int), default=10, help="number of random seeds")
    p.add_argument("--tolerance", type=_positive(float), default=1e-4)
    p.add_argument("--corrupt", help="perturb this parameter's gradient (negative control)")
    p.add_argument(
        "--corrupt-mode",
        default="joint",
        choices=MODES,
        help="which check the corruption applies to",
    )
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PilotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def script_main() -> None:
    sys.exit(main())
