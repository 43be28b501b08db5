"""Documentation consistency checks.

Cheap guards that the repository's documentation deliverables exist,
cover what they promise, and stay consistent with the code (e.g. the
Table-1 values quoted in DESIGN.md match the config defaults).
"""

import ast
import importlib
import inspect
import pathlib
import re


ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name):
    path = ROOT / name
    assert path.exists(), f"missing {name}"
    return path.read_text()


class TestReadme:
    def test_mentions_paper_and_quickstart(self):
        text = read("README.md")
        assert "ICDCS 2000" in text
        assert "run_scenario" in text
        assert "pytest tests/" in text
        assert "benchmarks/" in text

    def test_documents_every_example(self):
        text = read("README.md")
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in text, f"README does not mention {example.name}"


    def test_batch_envelope_sentence_matches_the_table(self):
        """The README and ``--engine``'s help say in words what
        ``BATCH_ENVELOPE`` says as data; widening one without the
        others fails here."""
        from repro.experiments.config import BATCH_ENVELOPE
        from tests.helpers import subcommand_parsers

        section = read("README.md").split("## Batch flow engine")[1]
        section = " ".join(section.split("\n## ")[0].split())
        engine_help = next(
            action.help
            for action in subcommand_parsers()["run"]._actions
            if "--engine" in action.option_strings
        )
        for text in (section, engine_help):
            for feature in ("protocols", "workloads", "traffic"):
                assert "/".join(BATCH_ENVELOPE[feature]) in text, feature
            for backend in BATCH_ENVELOPE["backends"]:
                assert f"the {backend} backend" in text
            assert BATCH_ENVELOPE["pacing"] is False and "no pacing" in text


class TestDesign:
    def test_has_experiment_index_for_every_figure(self):
        text = read("DESIGN.md")
        for artifact in ["Table 1", "Figure 2", "Figure 13"]:
            assert artifact in text
        for figure_id in ["F2", "F3", "F4", "F13"]:
            assert f"| {figure_id} " in text

    def test_documents_parameter_reconstruction(self):
        text = read("DESIGN.md")
        assert "Parameter reconstruction" in text
        assert "OCR" in text

    def test_quoted_table1_values_match_config(self):
        from repro.experiments.config import ScenarioConfig

        config = ScenarioConfig()
        text = read("DESIGN.md")
        assert "3 Mbps" in text
        assert "**50 packets**" in text
        assert config.buffer_capacity == 50
        assert config.bottleneck_rate_bps == 3e6

    def test_design_names_a_claim_of_every_ablation(self):
        from repro.experiments.claims import CLAIMS

        text = read("DESIGN.md")
        ablations = {c.artefact for c in CLAIMS.values() if c.artefact.startswith("ablation/")}
        assert len(ablations) == 7
        for artefact in ablations:
            ids = [c.id for c in CLAIMS.values() if c.artefact == artefact]
            assert any(f"`{claim_id}`" in text for claim_id in ids), artefact


class TestExperiments:
    def test_covers_every_paper_artifact(self):
        text = read("EXPERIMENTS.md")
        for artifact in [
            "Table 1",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figures 5–9",
            "Figures 10–12",
            "Figure 13",
        ]:
            assert artifact in text, artifact

    def test_has_deviations_section(self):
        text = read("EXPERIMENTS.md")
        assert "Deviations" in text

    #: A verdict row as ``render_claims`` prints it: id, section, claim.
    ROW = re.compile(r"^\| `([^`]+)` \| [^|]+ \| ([^|]+) \|", re.M)

    def test_verdict_tables_are_the_claims_table(self):
        """EXPERIMENTS.md's tables are ``repro-tcp claims`` output: every
        ``CLAIMS`` id once, in order, with its sentence -- and no table
        row without an id."""
        from repro.experiments.claims import CLAIMS

        text = read("EXPERIMENTS.md")
        rows = self.ROW.findall(text)
        assert [(i, sentence.strip()) for i, sentence in rows] == [
            (claim.id, claim.claim) for claim in CLAIMS.values()
        ]
        table_lines = [
            line for line in text.splitlines()
            if line.startswith("|") and not line.startswith(("| id |", "|---"))
        ]
        assert len(table_lines) == len(rows)
        for claim in CLAIMS.values():
            if claim.deviation:
                assert claim.deviation in text.split("## Deviations")[1], claim.id


class TestBenchmarkCoverage:
    def test_a_claim_exists_for_every_paper_artefact(self):
        """Table 1, every figure, the dependence check, each ablation
        and each closed-loop workload has at least one ``CLAIMS`` row."""
        from repro.experiments.claims import ARTEFACTS, CLAIMS

        covered = {claim.artefact for claim in CLAIMS.values()}
        assert covered == set(ARTEFACTS)
        assert {"T1", "F2", "F3", "F4", "F5–9", "F10–12", "F13", "dependence"} <= covered
        assert {a for a in covered if a.startswith("ablation/")} == {
            "ablation/buffer", "ablation/vegas", "ablation/red", "ablation/recovery",
            "ablation/pacing", "ablation/fq", "ablation/heavytail",
        }
        assert {a for a in covered if a.startswith("workload/")} == {
            "workload/rpc", "workload/bsp", "workload/bulk",
        }

    def test_public_modules_have_docstrings(self):
        import importlib
        import pkgutil

        import repro

        missing = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            if not module.__doc__:
                missing.append(module_info.name)
        assert missing == []


class TestNamedThingsExist:
    """Every ``repro.x.y`` dotted path and every backticked
    ``pkg/file.py`` path that README.md, DESIGN.md or a module docstring
    under ``src/`` names resolves to something that exists, so a module
    deleted in code cannot live on in prose.  A class or function
    resolves only under the module that defines it, not under one that
    imports it (one import path per name)."""

    DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
    FILE = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.py)(?:::[\w.]+)?`")

    @staticmethod
    def _prose():
        for name in ("README.md", "DESIGN.md"):
            yield name, read(name)
        for path in sorted((ROOT / "src").rglob("*.py")):
            docstring = ast.get_docstring(ast.parse(path.read_text()))
            if docstring:
                yield str(path.relative_to(ROOT)), docstring

    @staticmethod
    def _resolves(dotted):
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                found = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            module = found.__name__
            for depth, attribute in enumerate(parts[cut:]):
                if hasattr(found, attribute):
                    found = getattr(found, attribute)
                    if (
                        depth == 0
                        and (inspect.isclass(found) or inspect.isfunction(found))
                        and found.__module__ != module
                    ):
                        return False
                else:
                    # An instance attribute is only visible as an
                    # assignment in the class's source.
                    return inspect.isclass(found) and (
                        f"self.{attribute} =" in inspect.getsource(found)
                    )
            return True
        return False

    def test_a_name_resolves_only_at_its_home(self):
        assert not self._resolves("repro.experiments.scenario.ScenarioResult")
        assert self._resolves("repro.experiments.results.ScenarioResult")

    def test_dotted_paths_and_file_paths_resolve(self):
        dangling = []
        for where, text in self._prose():
            dangling += [
                (where, dotted)
                for dotted in sorted(set(self.DOTTED.findall(text)))
                if not self._resolves(dotted)
            ]
            dangling += [
                (where, path)
                for path in sorted(set(self.FILE.findall(text)))
                if not any(
                    (base / path).exists()
                    for base in (ROOT, ROOT / "src", ROOT / "src" / "repro")
                )
            ]
        assert dangling == []
