"""Repository-health checks: documentation artefacts exist and are coherent."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


class TestDocumentationArtefacts:
    def test_required_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "pyproject.toml"):
            assert (ROOT / name).is_file(), name

    def test_design_declares_provenance_caveat(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Source-text mismatch" in text
        assert "search-results listing" in text

    def test_experiments_covers_every_registered_figure(self):
        from repro.experiments.figures import ALL_FIGURES

        text = (ROOT / "EXPERIMENTS.md").read_text()
        for name in ALL_FIGURES:
            assert f"## {name}:" in text, f"{name} missing from EXPERIMENTS.md"

    def test_readme_mentions_all_examples(self):
        text = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in text, script.name

    def test_docs_directory(self):
        for name in ("PROTOCOLS.md", "VALIDATION.md", "TUTORIAL.md"):
            assert (ROOT / "docs" / name).is_file(), name


class TestClaimCoverage:
    def test_every_registered_figure_declares_a_claim(self):
        # EXPERIMENTS.md is rendered from the figure functions: each
        # section but table1's holds a non-empty table and at least one
        # claim line with its verdict.
        import re

        from repro.experiments.figures import ALL_FIGURES

        text = (ROOT / "EXPERIMENTS.md").read_text()
        for name in ALL_FIGURES:
            section = text.split(f"## {name}:", 1)[1].split("\n## ", 1)[0]
            assert re.search(r"^-+\+", section, re.M), f"{name} has no table"
            if name == "table1":
                continue
            verdicts = re.findall(
                r"^\[(holds|contradicted|unresolved)\] .+: .+, n=\d+$",
                section, re.M,
            )
            assert verdicts, f"figure {name} declares no claim"


class TestPublicApi:
    def test_package_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for pkg in ("repro.sim", "repro.phy", "repro.mac", "repro.net",
                    "repro.core", "repro.traffic", "repro.topology",
                    "repro.metrics", "repro.experiments", "repro.analysis",
                    "repro.util"):
            module = importlib.import_module(pkg)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (pkg, name)

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"
