"""Command-line front end.

Usage::

    redint <check-name> [--n N] [--seed S] [--samples K] [--max-word-len L]
                        [--t-max T] [--out PATH] [--config FILE.json]
    redint all   [flags]
    redint plot <check-name> [flags]

A JSON config file may supply any flag (keys ``n``, ``seed``, ``samples``,
``max_word_len``, ``t_max``, ``out``); explicit flags override the file. The
environment variable ``REDINT_SEED`` supplies the seed only when no other
seed source is present; combining it with an explicit ``--seed`` (or a seed
from the config file) is a configuration error.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error,
3 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    CHECKS,
    ConfigError,
    ExperimentConfig,
    UsageError,
    emit_plot_data,
    run_all,
    run_check,
    summarize,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_USAGE_ERROR = 3

_FLAG_KEYS = ("n", "seed", "samples", "max_word_len", "t_max", "out")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="redint", add_help=True)
    parser.add_argument("command", help="check name, 'all', or 'plot'")
    parser.add_argument("plot_check", nargs="?", default=None,
                        help="check name when the command is 'plot'")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--max-word-len", dest="max_word_len", type=int, default=None)
    parser.add_argument("--t-max", dest="t_max", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--config", type=str, default=None)
    return parser


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold one JSON object")
    unknown = set(data) - set(_FLAG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _merge_config(args) -> ExperimentConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    merged = {}
    for key in _FLAG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            merged[key] = file_values[key]

    env_seed = os.environ.get("REDINT_SEED")
    if env_seed is not None:
        if "seed" in merged:
            raise ConfigError(
                "REDINT_SEED is set while a seed is also given explicitly; "
                "provide exactly one seed source"
            )
        try:
            merged["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"REDINT_SEED is not an integer: {env_seed!r}") from exc

    return ExperimentConfig(**merged)


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(path, "w", encoding="utf8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "plot":
            if args.plot_check is None:
                raise UsageError("plot needs a check name")
        elif args.plot_check is not None:
            raise UsageError(f"unexpected positional argument {args.plot_check!r}")
        elif args.command != "all" and args.command not in CHECKS:
            raise UsageError(
                f"unknown check {args.command!r}; known: {', '.join(sorted(CHECKS))} "
                "(or 'all', 'plot')"
            )
        cfg = _merge_config(args)

        if args.command == "all":
            reports = run_all(cfg)
            _write_output("\n".join(rep.to_json() for rep in reports), cfg.out)
            sys.stderr.write(summarize(reports) + "\n")
            return EXIT_PASS if all(rep.passed for rep in reports) else EXIT_CHECK_FAILED
        if args.command == "plot":
            header, rows = emit_plot_data(args.plot_check, cfg)
            _write_output("\n".join([header] + rows), cfg.out)
            return EXIT_PASS
        report = run_check(args.command, cfg)
        _write_output(report.to_json(), cfg.out)
        return EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE_ERROR
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
