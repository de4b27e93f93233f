#!/usr/bin/env python
"""Docs-consistency gate: every CLI verb and flag appears in the docs.

Introspects the real argparse tree (``repro.cli.build_parser``) — not a
hand-maintained list — and requires that every subcommand name and every
long option of every subcommand is mentioned somewhere in the documentation
corpus (README.md, EXPERIMENTS.md, docs/*.md).  A flag added to the CLI
without a line of documentation fails CI here, which is how the docs tree
stays honest as the surface grows.  It also requires that every field of
every ``repro.api.KINDS`` request class has an argument on its verb, so
no request field is reachable over the wire but not from the CLI.

Usage: python scripts/check_docs.py  (exit 0 = consistent)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Documentation files whose union forms the corpus.
DOC_GLOBS = ("README.md", "EXPERIMENTS.md", "docs/*.md")


def doc_corpus() -> str:
    chunks = []
    for pattern in DOC_GLOBS:
        for path in sorted(REPO.glob(pattern)):
            chunks.append(path.read_text(encoding="utf-8"))
    return "\n".join(chunks)


def api_doc_text() -> str:
    """The registry-reference document (``docs/api.md``) alone."""
    return (REPO / "docs" / "api.md").read_text(encoding="utf-8")


def registry_names() -> dict:
    """``{registry: [registered names]}`` from the live registries.

    Everything a request can select by name — policy variants, fault
    scenarios, ECC codecs — must be enumerated in ``docs/api.md``; a
    name registered without a docs mention fails CI here, exactly like
    an undocumented CLI flag.
    """
    from repro.core.policy import available_variants
    from repro.ecc import available_codecs
    from repro.reliability.scenarios import available_scenarios

    return {
        "variant": list(available_variants()),
        "scenario": list(available_scenarios()),
        "codec": list(available_codecs()),
    }


def check_registries(names: dict, api_text: str) -> list:
    """``FAIL:`` lines for registered names missing from docs/api.md."""
    failures = []
    for registry, entries in sorted(names.items()):
        for name in entries:
            if name not in api_text:
                failures.append(
                    f"FAIL: {registry} {name!r} is not in docs/api.md"
                )
    return failures


def _verb_parsers() -> dict:
    """``{verb: subparser}`` of the live parser."""
    from repro.cli import build_parser

    parser = build_parser()
    verbs = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            verbs.update(action.choices)
    return verbs


def cli_surface() -> dict:
    """``{verb: [long options]}`` from the live parser."""
    surface = {}
    for verb, sub in _verb_parsers().items():
        flags = []
        for sub_action in sub._actions:
            flags.extend(
                opt for opt in sub_action.option_strings
                if opt.startswith("--")
            )
        surface[verb] = flags
    return surface


def cli_dests() -> dict:
    """``{verb: [argument dests]}`` from the live parser."""
    return {
        verb: [action.dest for action in sub._actions]
        for verb, sub in _verb_parsers().items()
    }


def request_fields() -> dict:
    """``{kind: {field: the dest its flag parses into}}`` for every
    request class in ``repro.api.KINDS``."""
    import dataclasses

    from repro import api
    from repro.cli import _dest

    return {
        kind: {f.name: _dest(f) for f in dataclasses.fields(cls)}
        for kind, (cls, _) in api.KINDS.items()
    }


def check_fields(fields: dict, dests: dict) -> list:
    """``FAIL:`` lines for request fields without an argument on the
    verb named after their kind (pure, like :func:`check`)."""
    failures = []
    for kind, mapping in sorted(fields.items()):
        if kind not in dests:
            failures.append(f"FAIL: kind {kind!r} has no CLI verb")
            continue
        for name, dest in mapping.items():
            if dest not in dests[kind]:
                failures.append(f"FAIL: {kind}: field {name} has no flag")
    return failures


def check(surface: dict, corpus: str) -> list:
    """``FAIL:`` lines for every verb/flag missing from the corpus.

    Pure so tests can hand in a synthetic surface/corpus pair; the
    ``FAIL:`` prefix is the machine-greppable contract CI and the unit
    tests key on.
    """
    failures = []
    for verb, flags in sorted(surface.items()):
        if verb not in corpus:
            failures.append(f"FAIL: verb {verb!r} is not documented")
        for flag in flags:
            if flag not in corpus:
                failures.append(
                    f"FAIL: {verb}: flag {flag} is not documented"
                )
    return failures


def main() -> int:
    surface = cli_surface()
    names = registry_names()
    fields = request_fields()
    failures = check(surface, doc_corpus())
    failures += check_registries(names, api_doc_text())
    failures += check_fields(fields, cli_dests())
    n_flags = sum(len(f) for f in surface.values())
    n_names = sum(len(v) for v in names.values())
    n_fields = sum(len(v) for v in fields.values())
    if failures:
        print("docs are out of sync with the CLI/registry surface:")
        for line in failures:
            print(line)
        print(
            f"\n(checked {n_flags} flags across {len(surface)} verbs "
            f"against {', '.join(DOC_GLOBS)}, {n_names} registered "
            f"names against docs/api.md, and {n_fields} request fields "
            f"against their verbs' flags)"
        )
        return 1
    print(
        f"docs OK: {len(surface)} verbs, {n_flags} flags, "
        f"{n_names} registered names all documented; "
        f"{n_fields} request fields all have a flag"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
