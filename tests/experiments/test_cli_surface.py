"""Pin of the CLI surface and of the request each argv line builds.

Two pins, both written against the hand-declared parser before the
flags were derived from the request dataclasses, so any drift in the
derivation shows here:

* for every verb, each long option's ``dest``, parsed default,
  ``nargs``, ``choices`` and ``required``;
* for a set of argv lines, the ``as_dict()`` of the request the verb
  hands to the facade (captured by stubbing the facade call).
"""

import argparse
import json

import pytest

from repro import api
from repro.cli import build_parser, main

_BENCHMARKS = [
    "applu", "apsi", "art", "bzip2", "equake", "gap", "gzip", "mcf",
    "mesa", "mgrid", "parser", "swim", "twolf", "vpr",
]
_FORMATS = ["table", "json", "csv"]
_FIGURES = [
    "all", "table1", "1", "3", "4", "5", "6", "7", "8", "ipc", "area",
]
_CODECS = ["dected", "interleaved-parity", "parity", "rs-symbol", "secded"]
_METRICS = ["masked", "corrected", "refetched", "due", "sdc", "failure"]

#: Verbs with required arguments parse their defaults from these argv.
_MINIMAL_ARGV = {
    "trace": ["--benchmark", "swim", "--out", "x"],
    "ablate": ["eager"],
}


def _opt(dest, default, nargs=None, choices=None, required=False):
    return (dest, default, nargs, choices, required)


SURFACE = {
    "ablate": {
        "--benchmarks": _opt("benchmarks", None, nargs="*"),
        "--cache-dir": _opt("cache_dir", None),
        "--jobs": _opt("jobs", 1),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--refs": _opt("refs", 60000),
        "--seed": _opt("seed", 0),
        "--warmup": _opt("warmup", 20000),
    },
    "area": {
        "--ecc-area-entries": _opt("ecc_area_entries", 1),
        "--format": _opt("format", "table", choices=_FORMATS),
    },
    "autotune": {
        "--benchmarks": _opt(
            "benchmarks",
            ["mesa"],
            nargs="+",
            choices=_BENCHMARKS,
        ),
        "--cache-dir": _opt("cache_dir", None),
        "--codecs": _opt("codecs", ["secded", "dected"], nargs="+"),
        "--double-bit-fraction": _opt("double_bit_fraction", 0.05),
        "--ecc-entries": _opt("ecc_entries", [1], nargs="+"),
        "--format": _opt("format", "table", choices=_FORMATS),
        "--insts": _opt("insts", 120000),
        "--intervals": _opt("intervals", [262144, 1048576], nargs="+"),
        "--jobs": _opt("jobs", 1),
        "--kernel": _opt("kernel", "batch"),
        "--n-lines": _opt("n_lines", 16384),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--objectives": _opt(
            "objectives",
            ["area", "fit", "traffic"],
            nargs="+",
        ),
        "--raw-fit": _opt("raw_fit", 1000.0),
        "--refs": _opt("refs", 60000),
        "--scenarios": _opt("scenarios", ["nominal"], nargs="+"),
        "--schemes": _opt(
            "schemes",
            ["non-uniform", "uniform-ecc"],
            nargs="+",
        ),
        "--seed": _opt("seed", 0),
        "--trials": _opt("trials", 2000),
        "--trials-per-shard": _opt("trials_per_shard", 500),
        "--variants": _opt("variants", ["standard"], nargs="+"),
        "--warmup": _opt("warmup", 20000),
        "--write-buffers": _opt("write_buffers", [16], nargs="+"),
    },
    "figures": {
        "--cache-dir": _opt("cache_dir", None),
        "--ecc-area-entries": _opt("ecc_area_entries", 1),
        "--fig": _opt(
            "fig",
            "all",
            choices=_FIGURES,
        ),
        "--jobs": _opt("jobs", 1),
        "--json": _opt("json", None),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--refs": _opt("refs", 60000),
        "--seed": _opt("seed", 0),
        "--warmup": _opt("warmup", 20000),
    },
    "inject": {
        "--codec": _opt(
            "codec",
            "secded",
            choices=_CODECS,
        ),
        "--flips": _opt("flips", 1),
        "--format": _opt("format", "table", choices=_FORMATS),
        "--seed": _opt("seed", 0),
        "--trace-capacity": _opt("trace_capacity", 65536),
        "--trace-out": _opt("trace_out", None),
        "--trials": _opt("trials", 1000),
    },
    "ipc": {
        "--benchmark": _opt("benchmark", "mesa", choices=_BENCHMARKS),
        "--cache-dir": _opt("cache_dir", None),
        "--ecc-entries": _opt("ecc_entries", 1),
        "--format": _opt("format", "table", choices=_FORMATS),
        "--insts": _opt("insts", 120000),
        "--interval": _opt("interval", 1048576),
        "--jobs": _opt("jobs", 1),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--profile": _opt("profile", False, nargs=0),
        "--seed": _opt("seed", 0),
        "--variant": _opt("variant", "standard"),
    },
    "list": {
    },
    "recommend": {
        "--area-budget": _opt("area_budget", None),
        "--benchmarks": _opt(
            "benchmarks",
            ["mesa"],
            nargs="+",
            choices=_BENCHMARKS,
        ),
        "--cache-dir": _opt("cache_dir", None),
        "--codecs": _opt("codecs", ["secded", "dected"], nargs="+"),
        "--double-bit-fraction": _opt("double_bit_fraction", 0.05),
        "--ecc-entries": _opt("ecc_entries", [1], nargs="+"),
        "--fit-budget": _opt("fit_budget", None),
        "--format": _opt("format", "table", choices=_FORMATS),
        "--insts": _opt("insts", 120000),
        "--intervals": _opt("intervals", [262144, 1048576], nargs="+"),
        "--jobs": _opt("jobs", 1),
        "--kernel": _opt("kernel", "batch"),
        "--n-lines": _opt("n_lines", 16384),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--objectives": _opt(
            "objectives",
            ["area", "fit", "traffic"],
            nargs="+",
        ),
        "--raw-fit": _opt("raw_fit", 1000.0),
        "--refs": _opt("refs", 60000),
        "--scenarios": _opt("scenarios", ["nominal"], nargs="+"),
        "--schemes": _opt(
            "schemes",
            ["non-uniform", "uniform-ecc"],
            nargs="+",
        ),
        "--seed": _opt("seed", 0),
        "--trials": _opt("trials", 2000),
        "--trials-per-shard": _opt("trials_per_shard", 500),
        "--variants": _opt("variants", ["standard"], nargs="+"),
        "--warmup": _opt("warmup", 20000),
        "--write-buffers": _opt("write_buffers", [16], nargs="+"),
    },
    "reliability": {
        "--benchmark": _opt("benchmark", None, choices=_BENCHMARKS),
        "--cache-dir": _opt("cache_dir", None),
        "--checkpoint": _opt("checkpoint", None),
        "--codec": _opt("codec", "secded"),
        "--double-bit-fraction": _opt("double_bit_fraction", 0.05),
        "--jobs": _opt("jobs", 1),
        "--kernel": _opt("kernel", "batch"),
        "--max-trials": _opt("max_trials", 1000000),
        "--metric": _opt(
            "metric",
            "sdc",
            choices=_METRICS,
        ),
        "--n-lines": _opt("n_lines", 16384),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--raw-fit": _opt("raw_fit", 1000.0),
        "--refs": _opt("refs", 60000),
        "--scenario": _opt("scenario", "nominal"),
        "--schemes": _opt(
            "schemes",
            ["uniform-ecc", "non-uniform"],
            nargs="+",
            choices=["uniform-ecc", "non-uniform", "parity-only"],
        ),
        "--seed": _opt("seed", 0),
        "--shards-per-round": _opt("shards_per_round", 8),
        "--target": _opt("target", 0.01),
        "--trace-capacity": _opt("trace_capacity", 65536),
        "--trace-out": _opt("trace_out", None),
        "--trials": _opt("trials", None),
        "--trials-per-shard": _opt("trials_per_shard", 500),
        "--variant": _opt("variant", "standard"),
        "--warmup": _opt("warmup", 20000),
    },
    "run": {
        "--benchmark": _opt("benchmark", "mesa", choices=_BENCHMARKS),
        "--cache-dir": _opt("cache_dir", None),
        "--ecc-entries": _opt("ecc_entries", 1),
        "--format": _opt("format", "table", choices=_FORMATS),
        "--interval": _opt("interval", 1048576),
        "--jobs": _opt("jobs", 1),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--profile": _opt("profile", False, nargs=0),
        "--refs": _opt("refs", 60000),
        "--seed": _opt("seed", 0),
        "--trace": _opt("trace", None),
        "--trace-capacity": _opt("trace_capacity", 65536),
        "--trace-out": _opt("trace_out", None),
        "--variant": _opt("variant", "standard"),
        "--warmup": _opt("warmup", 20000),
    },
    "serve": {
        "--data-dir": _opt("data_dir", None),
        "--host": _opt("host", "127.0.0.1"),
        "--jobs": _opt("jobs", 1),
        "--port": _opt("port", 8642),
        "--replica-id": _opt("replica_id", None),
        "--workers": _opt("workers", 2),
    },
    "stats": {
        "--benchmark": _opt("benchmark", "mesa", choices=_BENCHMARKS),
        "--cache-dir": _opt("cache_dir", None),
        "--ecc-entries": _opt("ecc_entries", 1),
        "--format": _opt("format", "table", choices=_FORMATS),
        "--interval": _opt("interval", 1048576),
        "--jobs": _opt("jobs", 1),
        "--n-seeds": _opt("n_seeds", 5),
        "--no-cache": _opt("no_cache", False, nargs=0),
        "--refs": _opt("refs", 60000),
        "--seed": _opt("seed", 0),
        "--warmup": _opt("warmup", 20000),
    },
    "trace": {
        "--benchmark": _opt(
            "benchmark",
            "swim",
            choices=_BENCHMARKS,
            required=True,
        ),
        "--format": _opt("format", "binary", choices=["binary", "text"]),
        "--l2-bytes": _opt("l2_bytes", 65536),
        "--out": _opt("out", "x", required=True),
        "--seed": _opt("seed", 0),
    },
    "workers": {
        "--format": _opt("format", "table", choices=_FORMATS),
        "--url": _opt("url", "http://127.0.0.1:8642"),
    },

}


def _subparsers():
    parser = build_parser()
    [action] = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _surface(verb, sub):
    parsed = sub.parse_args(_MINIMAL_ARGV.get(verb, []))
    surface = {}
    for action in sub._actions:
        longs = [o for o in action.option_strings if o.startswith("--")]
        if not longs or longs[0] == "--help":
            continue
        surface[longs[0]] = _opt(
            action.dest,
            getattr(parsed, action.dest),
            action.nargs,
            None if action.choices is None else list(action.choices),
            action.required,
        )
    return surface


def test_every_verb_is_pinned():
    assert sorted(_subparsers()) == sorted(SURFACE)


@pytest.mark.parametrize("verb", sorted(SURFACE))
def test_verb_surface(verb):
    assert _surface(verb, _subparsers()[verb]) == SURFACE[verb]


#: Each kind's default request document; recommend adds its budgets.
DEFAULT_DOCS = {
    "run": {
        "benchmark": "mesa",
        "trace": None,
        "interval": 1048576,
        "ecc_entries": 1,
        "refs": 60000,
        "warmup": 20000,
        "seed": 0,
        "variant": "standard",
    },
    "ipc": {
        "benchmark": "mesa",
        "insts": 120000,
        "interval": 1048576,
        "ecc_entries": 1,
        "seed": 0,
        "variant": "standard",
    },
    "area": {
        "ecc_entries": 1,
    },
    "inject": {
        "codec": "secded",
        "trials": 1000,
        "flips": 1,
        "seed": 0,
    },
    "figures": {
        "fig": "all",
        "refs": 60000,
        "warmup": 20000,
        "seed": 0,
        "ecc_area_entries": 1,
    },
    "ablate": {
        "study": "best-interval",
        "benchmarks": None,
        "refs": 60000,
        "warmup": 20000,
        "seed": 0,
    },
    "reliability": {
        "schemes": ["uniform-ecc", "non-uniform"],
        "trials": None,
        "target": 0.01,
        "metric": "sdc",
        "trials_per_shard": 500,
        "shards_per_round": 8,
        "max_trials": 1000000,
        "kernel": "batch",
        "seed": 0,
        "double_bit_fraction": 0.05,
        "raw_fit": 1000.0,
        "n_lines": 16384,
        "benchmark": None,
        "refs": 60000,
        "warmup": 20000,
        "checkpoint": None,
        "scenario": "nominal",
        "codec": "secded",
        "variant": "standard",
    },
    "autotune": {
        "benchmarks": ["mesa"],
        "schemes": ["non-uniform", "uniform-ecc"],
        "codecs": ["secded", "dected"],
        "intervals": [262144, 1048576],
        "ecc_entries": [1],
        "write_buffers": [16],
        "variants": ["standard"],
        "scenarios": ["nominal"],
        "objectives": ["area", "fit", "traffic"],
        "trials": 2000,
        "trials_per_shard": 500,
        "kernel": "batch",
        "seed": 0,
        "refs": 60000,
        "warmup": 20000,
        "insts": 120000,
        "double_bit_fraction": 0.05,
        "raw_fit": 1000.0,
        "n_lines": 16384,
    },
}
DEFAULT_DOCS["recommend"] = {
    **DEFAULT_DOCS["autotune"], "fit_budget": None, "area_budget": None,
}

#: (argv, facade call, the fields that differ from DEFAULT_DOCS).
ARGV_CASES = [
    (
        "run",
        "run",
        {},
    ),
    (
        "run --interval 256K",
        "run",
        {"interval": 262144},
    ),
    (
        "run --benchmark swim --interval none --ecc-entries none --refs "
        "3000 --warmup 1000 --seed 7 --variant silent-write",
        "run",
        {
            "benchmark": "swim",
            "interval": None,
            "ecc_entries": None,
            "refs": 3000,
            "warmup": 1000,
            "seed": 7,
            "variant": "silent-write",
        },
    ),
    (
        "run --trace refs.bin --ecc-entries 4",
        "run",
        {"trace": "refs.bin", "ecc_entries": 4},
    ),
    (
        "ipc",
        "ipc",
        {},
    ),
    (
        "ipc --benchmark mcf --insts 5000 --interval 64K --ecc-entries 2 "
        "--variant eager",
        "ipc",
        {
            "benchmark": "mcf",
            "insts": 5000,
            "interval": 65536,
            "ecc_entries": 2,
            "variant": "eager",
        },
    ),
    (
        "area",
        "area",
        {},
    ),
    (
        "area --ecc-area-entries 2",
        "area",
        {"ecc_entries": 2},
    ),
    (
        "inject --codec dected --trials 50 --flips 2 --seed 3",
        "inject",
        {"codec": "dected", "trials": 50, "flips": 2, "seed": 3},
    ),
    (
        "figures",
        "figures",
        {},
    ),
    (
        "figures --fig 8 --refs 6000 --warmup 2000 --seed 1 "
        "--ecc-area-entries 2",
        "figures",
        {
            "fig": "8",
            "refs": 6000,
            "warmup": 2000,
            "seed": 1,
            "ecc_area_entries": 2,
        },
    ),
    (
        "reliability --trials auto",
        "reliability",
        {},
    ),
    (
        "reliability --trials 400 --schemes parity-only non-uniform "
        "--kernel reference --scenario burst-heavy --codec dected --target "
        "0.02 --metric failure --checkpoint c.jsonl --benchmark swim "
        "--double-bit-fraction 0.1 --raw-fit 500 --n-lines 1024 --refs 3000 "
        "--warmup 1000 --trials-per-shard 100 --shards-per-round 2 "
        "--max-trials 5000 --variant eager --seed 9",
        "reliability",
        {
            "schemes": ["parity-only", "non-uniform"],
            "trials": 400,
            "target": 0.02,
            "metric": "failure",
            "trials_per_shard": 100,
            "shards_per_round": 2,
            "max_trials": 5000,
            "kernel": "reference",
            "seed": 9,
            "double_bit_fraction": 0.1,
            "raw_fit": 500.0,
            "n_lines": 1024,
            "benchmark": "swim",
            "refs": 3000,
            "warmup": 1000,
            "checkpoint": "c.jsonl",
            "scenario": "burst-heavy",
            "codec": "dected",
            "variant": "eager",
        },
    ),
    (
        "autotune --intervals 256K 1M",
        "autotune",
        {},
    ),
    (
        "autotune --benchmarks swim mcf --schemes non-uniform --codecs "
        "secded --ecc-entries 1 2 --write-buffers 8 16 --variants standard "
        "eager --scenarios nominal burst-heavy --objectives area fit "
        "--trials 100 --trials-per-shard 50 --kernel reference --insts 1000 "
        "--double-bit-fraction 0.1 --raw-fit 500 --n-lines 1024 "
        "--refs 3000 --warmup 1000 --seed 2",
        "autotune",
        {
            "benchmarks": ["swim", "mcf"],
            "schemes": ["non-uniform"],
            "codecs": ["secded"],
            "ecc_entries": [1, 2],
            "write_buffers": [8, 16],
            "variants": ["standard", "eager"],
            "scenarios": ["nominal", "burst-heavy"],
            "objectives": ["area", "fit"],
            "trials": 100,
            "trials_per_shard": 50,
            "kernel": "reference",
            "seed": 2,
            "refs": 3000,
            "warmup": 1000,
            "insts": 1000,
            "double_bit_fraction": 0.1,
            "raw_fit": 500.0,
            "n_lines": 1024,
        },
    ),
    (
        "recommend --fit-budget 5",
        "recommend",
        {"fit_budget": 5.0},
    ),
    (
        "recommend --area-budget 100 --fit-budget 1e3 --benchmarks gap",
        "recommend",
        {"benchmarks": ["gap"], "fit_budget": 1000.0, "area_budget": 100.0},
    ),
    (
        "ablate eager --benchmarks swim",
        "ablate",
        {"study": "eager", "benchmarks": ["swim"]},
    ),
    (
        "ablate decay",
        "ablate",
        {"study": "decay"},
    ),
    (
        "ablate eager --benchmarks",
        "ablate",
        {"study": "eager"},
    ),
]


class _Captured(Exception):
    """Raised by the stubbed facade call, carrying the built request."""


@pytest.fixture
def capture(monkeypatch):
    def stub(kind):
        def call(request, *args, **kwargs):
            raise _Captured(kind, request)
        return call

    for kind in api.KINDS:
        monkeypatch.setattr(api, kind, stub(kind))


def test_cases_cover_every_kind():
    assert {kind for _, kind, _ in ARGV_CASES} == set(api.KINDS)


@pytest.mark.parametrize(
    "argv,kind,fields", ARGV_CASES, ids=[c[0] for c in ARGV_CASES]
)
def test_argv_builds_request(capture, argv, kind, fields):
    with pytest.raises(_Captured) as caught:
        main(argv.split())
    called, request = caught.value.args
    assert called == kind
    assert type(request) is api.KINDS[kind][0]
    expected = {**DEFAULT_DOCS[kind], **fields}
    # JSON text, so an int where a float belongs (or back) also fails.
    assert json.dumps(request.as_dict(), sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )
