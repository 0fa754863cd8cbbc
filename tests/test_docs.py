"""The docs link checker, and that the repo's own docs pass it."""

from __future__ import annotations

from pathlib import Path

from repro.docscheck import check_file, check_tree, github_slug, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_repo_docs_have_no_dead_links_or_stale_module_refs():
    problems = check_tree(REPO_ROOT)
    assert problems == []


def test_docs_tree_is_complete():
    # The four documentation pages the README links into.
    for page in ("architecture", "workloads", "benchmarks", "observability"):
        assert (REPO_ROOT / "docs" / f"{page}.md").is_file()


def test_github_slug_matches_github_anchors():
    assert github_slug("Running tests and benchmarks") == "running-tests-and-benchmarks"
    assert github_slug("Deprecation policy (PEP 562 shims)") == (
        "deprecation-policy-pep-562-shims"
    )
    assert github_slug("The `workload` experiment") == "the-workload-experiment"


def _repo(tmp_path: Path) -> Path:
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (tmp_path / "src" / "repro" / "good.py").write_text("class Attr:\n    pass\n")
    (tmp_path / "README.md").write_text("# Top\n")
    return tmp_path


def test_checker_flags_dead_links_and_anchors(tmp_path):
    repo = _repo(tmp_path)
    (repo / "docs" / "real.md").write_text("# A Heading\n")
    page = repo / "docs" / "page.md"
    page.write_text(
        "[ok](real.md)\n[ok too](real.md#a-heading)\n"
        "[dead](missing.md)\n[bad anchor](real.md#nope)\n"
        "[external](https://example.com/x.md)\n"
    )
    problems = check_file(page, repo)
    assert problems == [
        "docs/page.md: dead link -> missing.md",
        "docs/page.md: missing anchor -> real.md#nope",
    ]


def test_checker_flags_references_to_deleted_modules(tmp_path):
    repo = _repo(tmp_path)
    bench = repo / "src" / "repro" / "bench"
    bench.mkdir()
    (bench / "__init__.py").write_text("from repro.bench.analytics import make_analytics\n")
    (bench / "analytics.py").write_text(
        "import json\n__all__ = ['exported']\nLIMIT: int = 3\n\n"
        "def make_analytics():\n    def nested():\n        pass\n"
    )
    page = repo / "docs" / "mods.md"
    page.write_text(
        "`repro.good` is fine, `repro.good.Attr` is an attribute,\n"
        "`repro.bench.make_analytics`, `repro.bench.analytics.LIMIT`,\n"
        "`repro.bench.analytics.json` and `repro.bench.analytics.exported` resolve,\n"
        "but `repro.deleted.module` is gone, and so are `repro.nosuch`,\n"
        "`repro.bench.nonexistent`, `repro.bench.analytics.no_such_fn`\n"
        "and `repro.bench.analytics.nested`.\n"
    )
    problems = check_file(page, repo)
    assert problems == [
        f"docs/mods.md: reference to missing module -> {name}"
        for name in (
            "repro.bench.analytics.nested",
            "repro.bench.analytics.no_such_fn",
            "repro.bench.nonexistent",
            "repro.deleted.module",
            "repro.nosuch",
        )
    ]


def test_checker_cli_exit_codes(tmp_path, capsys):
    repo = _repo(tmp_path)
    (repo / "docs" / "ok.md").write_text("[top](../README.md)\n")
    assert main([str(repo)]) == 0
    (repo / "docs" / "bad.md").write_text("[dead](gone.md)\n")
    assert main([str(repo)]) == 1
    assert "gone.md" in capsys.readouterr().out
