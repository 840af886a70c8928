"""Fast-tier guard over the documentation set.

Runs the link/anchor/path/dotted-name checks from ``tools/check_docs.py``
so a change cannot land a stale cross-reference.  The README quickstart *execution*
is left to the dedicated CI docs job (``python tools/check_docs.py``) —
here we only assert the block exists and parses.
"""

import ast
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def collect_errors():
    errors = []
    for doc in check_docs.doc_files():
        check_docs.check_links(doc, errors)
        check_docs.check_code_span_paths(doc, errors)
        check_docs.check_dotted_names(doc, errors)
    return errors


class TestDocs:
    def test_docs_cover_readme_and_docs_dir(self):
        names = {f.name for f in check_docs.doc_files()}
        assert "README.md" in names
        assert {"architecture.md", "ir.md", "backends.md"} <= names

    def test_links_anchors_and_paths_resolve(self):
        assert collect_errors() == []

    def test_checker_flags_a_broken_link(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](no/such/file.md) and [a](#nope)\n# Title\n")
        doc_errors = []
        orig_root = check_docs.REPO_ROOT
        try:
            check_docs.REPO_ROOT = tmp_path
            check_docs.check_links(bad, doc_errors)
        finally:
            check_docs.REPO_ROOT = orig_root
        assert any("broken link" in e for e in doc_errors)
        assert any("broken anchor" in e for e in doc_errors)

    def test_checker_flags_a_stale_dotted_name(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "`repro.api.cache.LRUCache`, `repro.autotune.Tuner`, `repro.obs`,\n"
            "`repro.api.cache.DeletedCache` and `repro.no_such_module.thing`\n"
        )
        doc_errors = []
        orig_root = check_docs.REPO_ROOT
        try:
            check_docs.REPO_ROOT = tmp_path
            check_docs.check_dotted_names(doc, doc_errors)
        finally:
            check_docs.REPO_ROOT = orig_root
        assert doc_errors == [
            "doc.md: dotted name `repro.api.cache.DeletedCache` does not resolve",
            "doc.md: dotted name `repro.no_such_module.thing` does not resolve",
        ]

    def test_readme_quickstart_block_exists_and_parses(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        match = check_docs._PY_BLOCK_RE.search(readme)
        assert match is not None, "README.md must keep a ```python quickstart block"
        ast.parse(match.group(1))
