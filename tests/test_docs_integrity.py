"""Documentation integrity: the per-experiment indexes cite real
``repro figure`` keys, and every key is cited by one of them."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def cited_figures(doc):
    """The ``repro figure`` keys a document cites (`` `figure KEY ...` ``),
    plus ``online`` when it cites `` `repro online` ``."""
    text = (ROOT / doc).read_text()
    keys = set()
    for group in re.findall(r"`(?:repro )?figure ([a-z0-9_ ]+)`", text):
        keys.update(group.split())
    if "`repro online`" in text:
        keys.add("online")
    return keys


def figure_keys():
    from repro.harness.figures import FIGURES

    return set(FIGURES) | {"online"}


class TestDocsIntegrity:
    def test_design_cites_figure_keys(self):
        cited = cited_figures("DESIGN.md")
        assert cited, "DESIGN.md must map experiments to figure keys"
        assert cited <= figure_keys(), cited - figure_keys()

    def test_experiments_cites_figure_keys(self):
        cited = cited_figures("EXPERIMENTS.md")
        assert len(cited) >= 20
        assert cited <= figure_keys(), cited - figure_keys()

    def test_every_figure_key_is_cited(self):
        cited = cited_figures("EXPERIMENTS.md") | cited_figures("DESIGN.md")
        assert figure_keys() <= cited, figure_keys() - cited

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for example in re.findall(r"examples/[a-z_]+\.py", readme):
            assert (ROOT / example).exists(), f"missing {example}"

    def test_paper_combo_names_consistent(self):
        from repro.layout import PAPER_COMBOS

        design = (ROOT / "DESIGN.md").read_text()
        for combo in PAPER_COMBOS:
            assert combo in design


class TestDocsLint:
    """The tools/check_docs.py gate, run in-process."""

    @pytest.fixture(autouse=True)
    def _load_tool(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_docs", ROOT / "tools" / "check_docs.py"
        )
        self.check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.check_docs)

    def test_public_symbols_have_docstrings(self):
        assert self.check_docs.check_docstrings() == []

    def test_markdown_links_resolve(self):
        assert self.check_docs.check_links() == []

    def test_no_orphan_pages(self):
        assert self.check_docs.check_orphans() == []

    def test_orphan_page_detected(self, tmp_path, monkeypatch):
        """A page nothing links to fails the orphan check."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "INDEX.md").write_text("# Map\n\n[linked](LINKED.md)\n")
        (docs / "LINKED.md").write_text("# Linked\n")
        (docs / "ORPHAN.md").write_text("# Nobody links here\n")
        monkeypatch.setattr(self.check_docs, "ROOT", tmp_path)
        problems = self.check_docs.check_orphans()
        assert len(problems) == 1
        assert "ORPHAN.md" in problems[0]
        assert "orphan" in problems[0]

    def test_dead_link_detected(self, tmp_path, monkeypatch):
        """A relative link to a missing file fails the link check."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "INDEX.md").write_text("[gone](MISSING.md)\n")
        monkeypatch.setattr(self.check_docs, "ROOT", tmp_path)
        problems = self.check_docs.check_links()
        assert len(problems) == 1
        assert "MISSING.md" in problems[0]
