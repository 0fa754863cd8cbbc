"""Documentation link checker: ``python -m repro.docscheck``.

Walks the repo's markdown (README.md, CONTRIBUTING.md, docs/) and fails on:

* **dead intra-repo links** — ``[text](relative/path)`` whose target file
  does not exist, or whose ``#anchor`` matches no heading in the target
  (external ``http(s)://``/``mailto:`` links are not fetched);
* **references to deleted modules** — inline ``repro.foo.bar`` dotted names
  that no longer resolve to a module or package under ``src/repro``, or to a
  name defined at the top level of one (a def, class, assignment or import,
  or an entry of its ``__all__``).

The CI docs job runs this over the checkout; ``tests/test_docs.py`` runs
the same checks as part of tier 1, so a PR that deletes a module or a docs
page cannot leave a dangling reference behind.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable

__all__ = ["check_file", "check_tree", "github_slug", "main"]

# [text](target) — target up to the first closing paren (no nested parens
# in our docs); images share the syntax via a leading ! which we ignore.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Dotted module references such as ``repro.bench.analytics`` in prose or
# code blocks.  A trailing dotted segment may be a top-level name (class,
# function, constant) of the last resolvable module.
_MODULE_REF = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _strip_fences(text: str) -> str:
    """Remove fenced code blocks (their '#' lines are not headings)."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def _anchors_of(path: Path) -> set[str]:
    text = _strip_fences(path.read_text(encoding="utf-8"))
    return {github_slug(m.group(1)) for m in _HEADING.finditer(text)}


def _top_level_names(path: Path) -> set[str]:
    """Names a module defines at top level: defs, classes, assignments,
    imports, and whatever its ``__all__`` lists."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    names.update(
                        e.value for e in node.value.elts if isinstance(e, ast.Constant)
                    )
    return names


def _module_resolves(dotted: str, src: Path) -> bool:
    parts = dotted.split(".")[1:]  # drop the leading "repro"
    node = src / "repro"
    for index, part in enumerate(parts):
        if (node / part).is_dir():
            node = node / part
        elif (node / f"{part}.py").is_file():
            node = node / f"{part}.py"
        else:
            # Unresolved tail: allowed only for a single final component
            # defined at the top level of the module/package we resolved.
            module = node / "__init__.py" if node.is_dir() else node
            return (
                index == len(parts) - 1
                and module.is_file()
                and part in _top_level_names(module)
            )
    return True


def check_file(path: Path, repo_root: Path) -> list[str]:
    """Return human-readable problems found in one markdown file."""
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(repo_root)

    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue
        base, _, anchor = target.partition("#")
        dest = path if not base else (path.parent / base).resolve()
        if not dest.exists():
            problems.append(f"{rel}: dead link -> {target}")
            continue
        if anchor and dest.suffix == ".md" and anchor not in _anchors_of(dest):
            problems.append(f"{rel}: missing anchor -> {target}")

    src = repo_root / "src"
    for dotted in sorted({m.group(0) for m in _MODULE_REF.finditer(text)}):
        if not _module_resolves(dotted, src):
            problems.append(f"{rel}: reference to missing module -> {dotted}")
    return problems


def default_files(repo_root: Path) -> list[Path]:
    files = [repo_root / "README.md", repo_root / "CONTRIBUTING.md"]
    files.extend(sorted((repo_root / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_tree(repo_root: Path, files: Iterable[Path] | None = None) -> list[str]:
    problems: list[str] = []
    for path in files if files is not None else default_files(repo_root):
        problems.extend(check_file(path, repo_root))
    return problems


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    repo_root = Path(args[0]).resolve() if args else Path.cwd()
    files = default_files(repo_root)
    problems = check_tree(repo_root, files)
    for problem in problems:
        print(problem)
    print(f"checked {len(files)} files: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
