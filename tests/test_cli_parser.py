"""The parser's shape, pinned: every subcommand's options and their defaults.

``EXPECTED`` maps each subcommand's option strings (positionals by dest)
to ``(dest, default, choices, nargs, action class)``. It was captured
from the parser before its options were declared through shared
helpers, so a flag that is added, dropped, renamed or given a new
default fails here. Help text is free to change, but every subparser
must still render it. A malformed ``--capacity`` is a usage error
(argparse's message, exit 2) on every subcommand that takes one.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _build_parser, main

STORE, TRUE, APPEND = "_StoreAction", "_StoreTrueAction", "_AppendAction"
SCALES = ("tiny", "default", "full")
FORMATS = ("bu", "squid", "clf")
STREAMED = ("bu", "squid", "clf", "packed")
ENGINES = ("object", "columnar", "batch")
ARCHITECTURES = ("distributed", "hierarchical")
PARTITIONERS = ("hash", "round-robin-client", "round-robin-request")
OBS_ACTIONS = ("tail", "summarize", "diff", "validate", "timeline", "report")

EXPERIMENT_NAMES = (
    "ablation-architecture", "ablation-measure", "ablation-policy", "ablation-ties",
    "ablation-window", "ext-admission", "ext-baselines", "ext-coherence",
    "ext-demotion", "ext-heterogeneous", "ext-locator", "ext-loss",
    "ext-prefetch", "ext-replica-cap", "fig1", "fig2",
    "fig3", "groupsize", "model", "multiseed",
    "table1", "table2", "all",
)

EXPECTED = {
    "analyze": {
        "--json": ("json", False, None, 0, TRUE),
        "--root": ("root", "src", None, None, STORE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
        "--trace": ("trace", None, None, None, STORE),
        "--trace-format": ("trace_format", "bu", FORMATS, None, STORE),
        "target": ("target", None, None, "*", STORE),
    },
    "compare": {
        "--caches": ("caches", 4, None, None, STORE),
        "--capacity": ("capacity", "1MB", None, None, STORE),
        "--policy": ("policy", "lru", None, None, STORE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
        "--trace": ("trace", None, None, None, STORE),
        "--trace-format": ("trace_format", "bu", FORMATS, None, STORE),
    },
    "experiment": {
        # The parent declared no default; None resolved to the same
        # config engine, "object", which every other --engine defaults to.
        "--engine": ("engine", "object", ENGINES, None, STORE),
        "--events": ("events", None, None, None, STORE),
        "--jobs": ("jobs", None, None, None, STORE),
        "--json": ("json", False, None, 0, TRUE),
        "--memo": ("memo", None, None, None, STORE),
        "--progress": ("progress", False, None, 0, TRUE),
        "--save-json": ("save_json", None, None, None, STORE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
        "--snapshot-interval": ("snapshot_interval", 0.0, None, None, STORE),
        "name": ("name", None, EXPERIMENT_NAMES, None, STORE),
    },
    "generate-trace": {
        "--out": ("out", None, None, None, STORE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
    },
    "lint": {
        "--json": ("json", False, None, 0, TRUE),
        "--list-rules": ("list_rules", False, None, 0, TRUE),
        "--select": ("select", None, None, None, STORE),
        "paths": ("paths", ["src", "tests"], None, "*", STORE),
    },
    "obs": {
        "--count": ("count", 10, None, None, STORE),
        "--json": ("json", False, None, 0, TRUE),
        "-n": ("count", 10, None, None, STORE),
        "action": ("action", None, OBS_ACTIONS, None, STORE),
        "paths": ("paths", None, None, "+", STORE),
    },
    "pack-trace": {
        "--chunk-size": ("chunk_size", None, None, None, STORE),
        "--out": ("out", None, None, None, STORE),
        "--requests": ("requests", None, None, None, STORE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
        "--trace": ("trace", None, None, None, STORE),
        "--trace-format": ("trace_format", "bu", FORMATS, None, STORE),
    },
    "profile": {
        "--architecture": ("architecture", "distributed", ARCHITECTURES, None, STORE),
        "--caches": ("caches", 4, None, None, STORE),
        "--capacity": ("capacity", "10MB", None, None, STORE),
        "--engine": ("engine", "object", ENGINES, None, STORE),
        "--partitioner": ("partitioner", "hash", PARTITIONERS, None, STORE),
        "--policy": ("policy", "lru", None, None, STORE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--scheme": ("scheme", "ea", ("adhoc", "ea"), None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
        "--sort": ("sort", "cumulative", ("cumulative", "tottime"), None, STORE),
        "--top": ("top", 25, None, None, STORE),
        "--trace": ("trace", None, None, None, STORE),
        "--trace-format": ("trace_format", "bu", STREAMED, None, STORE),
    },
    "simulate": {
        "--architecture": ("architecture", "distributed", ARCHITECTURES, None, STORE),
        "--caches": ("caches", 4, None, None, STORE),
        "--capacity": ("capacity", "10MB", None, None, STORE),
        "--chunk-size": ("chunk_size", None, None, None, STORE),
        "--engine": ("engine", "object", ENGINES, None, STORE),
        "--events": ("events", None, None, None, STORE),
        "--json": ("json", False, None, 0, TRUE),
        "--partitioner": ("partitioner", "hash", PARTITIONERS, None, STORE),
        "--policy": ("policy", "lru", None, None, STORE),
        "--sanitize": ("sanitize", False, None, 0, TRUE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--scheme": ("scheme", "ea", ("adhoc", "ea"), None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
        "--snapshot-interval": ("snapshot_interval", 0.0, None, None, STORE),
        "--timeseries": ("timeseries", None, None, None, STORE),
        "--trace": ("trace", None, None, None, STORE),
        "--trace-format": ("trace_format", "bu", STREAMED, None, STORE),
        "--trace-out": ("trace_out", None, None, None, STORE),
        "--track-memory": ("track_memory", False, None, 0, TRUE),
    },
    "sweep": {
        "--architecture": ("architecture", "distributed", ARCHITECTURES, None, STORE),
        "--caches": ("caches", 4, None, None, STORE),
        "--capacity": ("capacities", None, None, None, APPEND),
        "--engine": ("engine", "object", ENGINES, None, STORE),
        "--events": ("events", None, None, None, STORE),
        "--jobs": ("jobs", None, None, None, STORE),
        "--json": ("json", False, None, 0, TRUE),
        "--memo": ("memo", None, None, None, STORE),
        "--policy": ("policy", "lru", None, None, STORE),
        "--progress": ("progress", False, None, 0, TRUE),
        "--scale": ("scale", "default", SCALES, None, STORE),
        "--schemes": ("schemes", "adhoc,ea", None, None, STORE),
        "--seed": ("seed", 42, None, None, STORE),
        "--snapshot-interval": ("snapshot_interval", 0.0, None, None, STORE),
        "--trace": ("trace", None, None, None, STORE),
        "--trace-format": ("trace_format", "bu", STREAMED, None, STORE),
        "--trace-out": ("trace_out", None, None, None, STORE),
        "--track-memory": ("track_memory", False, None, 0, TRUE),
    },
}


def _subparsers():
    parser = _build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _shape(subparser):
    rows = {}
    for action in subparser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = None if action.choices is None else tuple(action.choices)
        for key in action.option_strings or [action.dest]:
            rows[key] = (action.dest, action.default, choices, action.nargs,
                         type(action).__name__)
    return rows


def test_every_subcommand_is_pinned():
    assert sorted(_subparsers()) == sorted(EXPECTED)


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_options_keep_their_shape(command):
    assert _shape(_subparsers()[command]) == EXPECTED[command]


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_help_renders(command):
    # A stray '%' in a help string fails only when the help is formatted.
    assert command in _subparsers()[command].format_help()


@pytest.mark.parametrize("size", ["10XB", "infMB", "1e400KB"])
@pytest.mark.parametrize("command", ["simulate", "profile", "compare", "sweep"])
def test_malformed_size_is_a_usage_error(command, size, capsys):
    # An infinite size (infMB, or 1e400KB past the float range) used to
    # escape parse_size as a raw OverflowError traceback.
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--scale", "tiny", "--capacity", size])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --capacity: invalid size '{size}'" in err


@pytest.mark.parametrize("argv, flag", [
    (["experiment", "fig1", "--scale", "tiny", "--jobs", "-3"], "--jobs"),
    (["sweep", "--scale", "tiny", "--jobs", "-1"], "--jobs"),
    (["sweep", "--scale", "tiny", "--jobs", "two"], "--jobs"),
    (["obs", "tail", "events.jsonl", "-n", "-3"], "-n/--count"),
    (["profile", "--scale", "tiny", "--top", "-1"], "--top"),
])
def test_negative_count_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid count" in err
