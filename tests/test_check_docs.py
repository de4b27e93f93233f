"""The docs-consistency gate: introspection plus the FAIL contract.

``scripts/check_docs.py`` keeps the documentation corpus honest by
introspecting the live argparse tree; these tests pin (a) that the
introspection actually sees newly added verbs — autotune/recommend
must appear without any hand-maintained list being touched — and
(b) that :func:`check` emits a greppable ``FAIL:`` line for every
undocumented verb and flag, and nothing when the corpus covers them,
and (c) that every CLI line of a fenced block parses.
"""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


class TestCheck:
    def test_undocumented_verb_is_a_fail_line(self):
        failures = check_docs.check({"frobnicate": []}, corpus="")
        assert failures == [
            "FAIL: verb 'frobnicate' is not documented"
        ]

    def test_undocumented_flag_is_a_fail_line(self):
        failures = check_docs.check(
            {"run": ["--trials", "--seed"]},
            corpus="The `run` verb takes --trials.",
        )
        assert failures == ["FAIL: run: flag --seed is not documented"]

    def test_documented_surface_is_clean(self):
        corpus = "Use `run --trials N --seed S` to run."
        assert check_docs.check(
            {"run": ["--trials", "--seed"]}, corpus
        ) == []

    def test_every_failure_is_reported_not_just_the_first(self):
        failures = check_docs.check(
            {"a": ["--x"], "b": ["--y"]}, corpus=""
        )
        assert len(failures) == 4
        assert all(line.startswith("FAIL: ") for line in failures)


class TestSurface:
    def test_new_verbs_are_picked_up_automatically(self):
        surface = check_docs.cli_surface()
        assert "autotune" in surface
        assert "recommend" in surface

    def test_surface_carries_the_new_flags(self):
        surface = check_docs.cli_surface()
        assert "--objectives" in surface["autotune"]
        assert "--fit-budget" in surface["recommend"]
        assert "--area-budget" in surface["recommend"]

    def test_repo_docs_cover_the_full_surface(self):
        """The live gate itself: the shipped docs must be in sync."""
        failures = check_docs.check(
            check_docs.cli_surface(), check_docs.doc_corpus()
        )
        assert failures == []


class TestRegistries:
    def test_missing_name_is_a_fail_line(self):
        failures = check_docs.check_registries(
            {"variant": ["standard", "silent-write"]},
            api_text="only `standard` is described here",
        )
        assert failures == [
            "FAIL: variant 'silent-write' is not in docs/api.md"
        ]

    def test_covered_names_are_clean(self):
        assert check_docs.check_registries(
            {"codec": ["secded"], "variant": ["standard"]},
            api_text="`secded` and `standard` are documented",
        ) == []

    def test_live_registries_include_the_variants(self):
        names = check_docs.registry_names()
        assert "silent-write" in names["variant"]
        assert "wb-compress" in names["variant"]
        assert "nominal" in names["scenario"]
        assert "secded" in names["codec"]

    def test_repo_api_doc_covers_every_registered_name(self):
        """The live gate: docs/api.md enumerates all registries."""
        assert check_docs.check_registries(
            check_docs.registry_names(), check_docs.api_doc_text()
        ) == []


class TestRequestFields:
    def test_field_without_a_flag_is_a_fail_line(self):
        failures = check_docs.check_fields(
            {"run": {"benchmark": "benchmark", "seed": "seed"}},
            dests={"run": ["help", "benchmark"]},
        )
        assert failures == ["FAIL: run: field seed has no flag"]

    def test_kind_without_a_verb_is_a_fail_line(self):
        failures = check_docs.check_fields(
            {"sweep": {"seed": "seed"}}, dests={"run": ["seed"]}
        )
        assert failures == ["FAIL: kind 'sweep' has no CLI verb"]

    def test_aliased_and_positional_fields_match_by_dest(self):
        assert check_docs.check_fields(
            {"area": {"ecc_entries": "ecc_area_entries"},
             "ablate": {"study": "study"}},
            dests={"area": ["ecc_area_entries"], "ablate": ["study"]},
        ) == []

    def test_live_fields_map_to_their_flags(self):
        fields = check_docs.request_fields()
        assert fields["area"] == {"ecc_entries": "ecc_area_entries"}
        assert fields["recommend"]["fit_budget"] == "fit_budget"

    def test_repo_cli_covers_every_request_field(self):
        """The live gate: every request field has a flag on its verb."""
        assert check_docs.check_fields(
            check_docs.request_fields(), check_docs.cli_dests()
        ) == []


class TestDocumentedCommands:
    def test_stale_command_is_a_fail_line(self):
        failures = check_docs.check_commands([
            ("EXPERIMENTS.md:34", ["ablate", "interval", "--jobs", "4"]),
            ("README.md:1", ["ablate", "best-interval", "--jobs", "4"]),
        ])
        assert len(failures) == 1
        assert failures[0].startswith(
            "FAIL: EXPERIMENTS.md:34: repro ablate interval --jobs 4: "
            "argument study: invalid choice: 'interval'"
        )

    def test_removed_flag_and_unknown_benchmark_fail(self):
        assert check_docs.parse_error(["figures", "--no-ipc"]) == (
            "unrecognized arguments: --no-ipc"
        )
        assert "invalid choice: 'gcc'" in check_docs.parse_error(
            ["autotune", "--benchmarks", "mesa", "gcc"]
        )
        assert check_docs.parse_error(["figures", "--help"]) == ""

    def test_commands_are_extracted_from_shell_fences(self):
        commands = dict(check_docs.doc_commands())
        # Env prefix, continuation, trailing comment and fence type:
        # EXPERIMENTS.md opens with the figures-document recipe.
        [argv] = [
            argv for where, argv in commands.items()
            if where.startswith("EXPERIMENTS.md:") and "--json" in argv
            and "benchmarks/results/figures.json" in argv
        ]
        assert argv == [
            "figures", "--json", "benchmarks/results/figures.json",
            "--refs", "120000", "--warmup", "40000", "--jobs", "2",
            "--no-cache",
        ]
        assert all(argv and not argv[0].startswith(("-", "python"))
                   for argv in commands.values())

    def test_repo_docs_commands_all_parse(self):
        """The live gate: every documented command parses."""
        assert check_docs.check_commands(check_docs.doc_commands()) == []
