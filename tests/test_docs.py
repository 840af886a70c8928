"""Fast-tier guard over the documentation set.

Runs the link/anchor/path/dotted-name checks from ``tools/check_docs.py``
so a change cannot land a stale cross-reference.  *Executing* the README
quickstart and the examples is left to the dedicated CI docs job
(``python tools/check_docs.py``) — here we only assert the block and the
examples parse, and that the smoke step would run every example.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

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

    def test_checker_resolves_the_calibration_module_names(self):
        for name in (
            "SAFETY_MARGIN",
            "CalibrationEntry",
            "default_inputs",
            "calibrate_configs",
            "select",
        ):
            assert check_docs.resolves(f"repro.api.calibration.{name}"), name
        assert not check_docs.resolves("repro.api.session.Session")
        assert not check_docs.resolves("repro.api.PerforationEngine.session")

    def test_run_python_reports_only_a_failing_script(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text("import repro\n")
        bad = tmp_path / "bad.py"
        bad.write_text("raise SystemExit('stale example')\n")
        errors = []
        check_docs.run_python("ok.py", [str(ok)], errors)
        assert errors == []
        check_docs.run_python("bad.py", [str(bad)], errors)
        assert len(errors) == 1
        assert errors[0].startswith("bad.py failed:") and "stale example" in errors[0]

    @pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
    def test_example_parses(self, example):
        ast.parse(example.read_text(encoding="utf-8"), filename=str(example))

    def test_readme_quickstart_block_exists_and_parses(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        match = check_docs._PY_BLOCK_RE.search(readme)
        assert match is not None, "README.md must keep a ```python quickstart block"
        ast.parse(match.group(1))

    def test_smoke_runs_the_quickstart_and_every_example(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            check_docs, "run_python", lambda what, args, errors, source=None: ran.append(what)
        )
        errors = []
        check_docs.run_smoke(errors)
        assert EXAMPLES
        assert errors == []
        assert ran == [
            "README.md: quickstart block",
            *(f"examples/{example.name}" for example in EXAMPLES),
        ]
