#!/usr/bin/env python
"""Documentation checker: links, anchors, referenced paths, runnable examples.

Checks, over ``README.md`` and every ``docs/*.md``:

1. every relative markdown link ``[text](target)`` points at a file that
   exists (external ``http(s)://`` links are skipped — CI must not depend
   on the network);
2. every ``#fragment`` in an internal link resolves to a heading in the
   target file (GitHub-style slugs);
3. every backtick code span that names a repo path under a known
   top-level directory (``tests/``, ``src/``, ``docs/``, ``benchmarks/``,
   ``examples/``, ``tools/``, ``.github/``) exists, so prose references
   cannot go stale silently;
4. every backtick code span that is a dotted ``repro.…`` name resolves:
   the longest importable module prefix is imported and the rest looked
   up with ``getattr``, so a doc naming a deleted or renamed symbol fails;
5. unless ``--no-smoke``: the first ``python`` code block in
   ``README.md`` (the quickstart) and every ``examples/*.py`` script
   actually run, each as its own subprocess.

Exit status 0 when everything passes, 1 otherwise.  Run from anywhere:

    python tools/check_docs.py [--no-smoke]
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Backtick spans starting with these prefixes must exist from the repo
# root; anything else in backticks (module dotted paths, shell commands,
# paths relative to some package directory) is not checked.
PATH_PREFIXES = ("tests/", "src/", "docs/", "benchmarks/", "examples/", "tools/", ".github/")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_DOTTED_NAME_RE = re.compile(r"repro(?:\.\w+)+")
_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_PY_BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces to dashes."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    text = _FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    for match in _HEADING_RE.finditer(text):
        slug = github_slug(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(doc: Path, errors: list[str]) -> None:
    text = doc.read_text(encoding="utf-8")
    rel = doc.relative_to(REPO_ROOT)
    for match in _LINK_RE.finditer(_FENCE_RE.sub("", text)):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{rel}: broken link target {target!r}")
                continue
        else:
            resolved = doc
        if fragment:
            if resolved.suffix != ".md":
                continue
            if fragment not in heading_slugs(resolved):
                errors.append(f"{rel}: broken anchor {target!r}")


def check_code_span_paths(doc: Path, errors: list[str]) -> None:
    rel = doc.relative_to(REPO_ROOT)
    for match in _CODE_SPAN_RE.finditer(doc.read_text(encoding="utf-8")):
        span = match.group(1).strip()
        if not span.startswith(PATH_PREFIXES):
            continue
        # Keep only a leading path-looking token ("tests/foo.py::TestBar" -> file).
        token = span.split("::")[0].split()[0]
        if not re.fullmatch(r"[\w./\-]+", token):
            continue
        if not (REPO_ROOT / token).exists():
            errors.append(f"{rel}: referenced path `{span}` does not exist")


def resolves(name: str) -> bool:
    """Whether a dotted name is importable: a module prefix plus attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def check_dotted_names(doc: Path, errors: list[str]) -> None:
    rel = doc.relative_to(REPO_ROOT)
    text = _FENCE_RE.sub("", doc.read_text(encoding="utf-8"))
    for match in _CODE_SPAN_RE.finditer(text):
        name = match.group(1).strip()
        if _DOTTED_NAME_RE.fullmatch(name) and not resolves(name):
            errors.append(f"{rel}: dotted name `{name}` does not resolve")


def run_python(what: str, args: list[str], errors: list[str], source: str | None = None) -> None:
    """Run ``python *args`` (reading ``source`` on stdin) against ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *args],
        input=source,
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-15:]
        errors.append(f"{what} failed:\n    " + "\n    ".join(tail))


def run_smoke(errors: list[str]) -> None:
    """Run the README quickstart and every example."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    match = _PY_BLOCK_RE.search(readme)
    if match:
        run_python("README.md: quickstart block", ["-"], errors, source=match.group(1))
    else:
        errors.append("README.md: no ```python quickstart block found")
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        run_python(str(example.relative_to(REPO_ROOT)), [str(example)], errors)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-smoke",
        action="store_true",
        help="skip executing the README quickstart block and the examples (links/paths only)",
    )
    opts = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))  # resolve names without an install
    errors: list[str] = []
    docs = doc_files()
    for doc in docs:
        check_links(doc, errors)
        check_code_span_paths(doc, errors)
        check_dotted_names(doc, errors)
    if not opts.no_smoke:
        run_smoke(errors)

    if errors:
        print(f"check_docs: {len(errors)} problem(s) in {len(docs)} file(s):")
        for err in errors:
            print(f"  - {err}")
        return 1
    smoke = "skipped" if opts.no_smoke else "passed"
    print(f"check_docs: {len(docs)} files clean, README quickstart and examples {smoke}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
