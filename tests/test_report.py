"""Tests for the report generator and EXPERIMENTS.md writing."""

from pathlib import Path

import pytest

from repro.experiments.figures import FigureResult, _difference_claim
from repro.experiments import report as report_mod
from repro.experiments.report import generate_report, write_experiments_md


@pytest.fixture
def fake_figures(monkeypatch):
    """Replace the figure registry with two cheap synthetic figures."""

    def fig_numeric(quick: bool) -> FigureResult:
        return FigureResult(
            name="figA",
            title="numeric sweep",
            headers=["rate", "aodv_pdr", "nlr_pdr"],
            rows=[[10, 1.0, 1.0], [20, 0.9, 0.95], [30, 0.7, 0.85]],
            expectation="nlr above aodv",
            claims=[_difference_claim(
                "nlr − aodv pdr @ 30", [0.85, 0.86], [0.7, 0.7], ">", 0.0
            )],
            notes="measured note",
        )

    def fig_table(quick: bool) -> FigureResult:
        return FigureResult(
            name="tabB",
            title="categorical summary",
            headers=["protocol", "pdr"],
            rows=[["aodv", 0.9], ["nlr", 0.95]],
        )

    registry = {"figA": fig_numeric, "tabB": fig_table}
    monkeypatch.setattr(report_mod, "ALL_FIGURES", registry)
    return registry


class TestGenerateReport:
    def test_contains_tables_and_expectations(self, fake_figures):
        out = generate_report(quick=True)
        assert "## figA: numeric sweep" in out
        assert "## tabB: categorical summary" in out
        assert "**Expected shape:** nlr above aodv" in out
        assert "**Measured:** measured note" in out
        assert "Provenance caveat" in out

    def test_claims_one_line_each(self, fake_figures):
        out = generate_report(quick=True)
        assert "**Claims:**" in out
        [line] = [l for l in out.splitlines() if l.startswith("[")]
        assert line.startswith("[holds] nlr − aodv pdr @ 30 > 0: 0.155 [")
        assert line.endswith(", n=2")

    def test_header_names_the_generating_rev(self, fake_figures):
        out = generate_report(quick=True)
        assert " at rev `" in out and "in quick mode" in out

    def test_numeric_figure_gets_chart(self, fake_figures):
        out = generate_report(quick=True)
        assert "o=aodv" in out and "x=nlr" in out

    def test_figure_subset(self, fake_figures):
        out = generate_report(figures=["tabB"], quick=True)
        assert "tabB" in out
        assert "figA" not in out

    def test_progress_callback(self, fake_figures):
        seen = []
        generate_report(quick=True, progress=seen.append)
        assert len(seen) == 2

    def test_write_experiments_md(self, fake_figures, tmp_path):
        path = write_experiments_md(path=tmp_path / "EXP.md", quick=True)
        assert Path(path).exists()
        assert "figA" in Path(path).read_text()


class TestRenderedFigure:
    def test_render_includes_all_parts(self):
        fig = FigureResult(
            name="f", title="t", headers=["a"], rows=[[1]],
            expectation="exp", notes="note",
        )
        out = fig.render()
        assert "f: t" in out
        assert "Expected shape: exp" in out
        assert "Notes: note" in out

    def test_render_prints_one_line_per_claim(self):
        claims = [
            _difference_claim("b − a", [1.0, 1.0], [0.0, 0.0], ">", 0.0),
            _difference_claim("a − b", [0.0, 0.1], [0.1, 0.0], ">", 0.0),
        ]
        fig = FigureResult(name="f", title="t", headers=["a"], rows=[[1]],
                           expectation="exp", claims=claims)
        lines = fig.render().splitlines()
        assert lines[-2] == "[holds] b − a > 0: 1 [1, 1], n=2"
        assert lines[-1].startswith("[unresolved] a − b > 0: 0 [")
