"""Tests for tools/lint_state_writes.py — the journal-before-ack lint.

The lint is only worth gating CI on if (a) the shipped stateful driver
passes it and (b) it actually catches the decay patterns it documents:
a public mutator that never journals, a journal write that bypasses the
``_journal_write`` funnel (and with it the ``MID_JOURNAL`` kill point),
and an ``EXEMPT`` entry naming a method that no longer exists.
"""

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "lint_state_writes.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_state_writes", LINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _source(body):
    return "class StatefulDriver:\n" + textwrap.indent(textwrap.dedent(body), "    ")


class TestRepoIsClean:
    def test_script_exits_zero(self):
        result = subprocess.run(
            [sys.executable, str(LINT)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_main_returns_zero(self, lint):
        assert lint.main() == 0

    def test_no_problems_on_shipped_driver(self, lint):
        assert lint.lint() == []


class TestCatchesUnjournaledMutators:
    def test_mutator_without_journal_is_flagged(self, lint, monkeypatch):
        monkeypatch.setattr(lint, "EXEMPT", {})
        problems = lint.lint(
            _source(
                """
                def domain_rename(self, name, new_name):
                    record = self._record(name)
                    record.config.name = new_name
                    self._domains[new_name] = self._domains.pop(name)
                """
            )
        )
        assert any(
            p.startswith("domain_rename mutates persisted driver state") for p in problems
        )

    def test_journal_through_helper_passes(self, lint, monkeypatch):
        monkeypatch.setattr(lint, "EXEMPT", {})
        problems = lint.lint(
            _source(
                """
                def _persist(self, name):
                    self._journal_domain(name)

                def domain_rename(self, name, new_name):
                    self._domains[new_name] = self._domains.pop(name)
                    self._persist(new_name)
                """
            )
        )
        assert problems == []


class TestCatchesFunnelBypass:
    def test_state_put_outside_funnel_is_flagged(self, lint, monkeypatch):
        monkeypatch.setattr(lint, "EXEMPT", {})
        problems = lint.lint(
            _source(
                """
                def _journal_write(self, kind, key, build):
                    self._state.put(kind, key, build())

                def _journal_fast(self, name):
                    self._state.put("domain", name, {"xml": ""})
                """
            )
        )
        assert len(problems) == 1
        assert problems[0].startswith("_journal_fast:")
        assert "calls journal.put() outside the _journal_write funnel" in problems[0]


class TestExemptHygiene:
    def test_stale_exempt_entry_is_flagged(self, lint, monkeypatch):
        monkeypatch.setattr(lint, "EXEMPT", {"domain_frobnicate": "gone"})
        problems = lint.lint()
        assert "EXEMPT names unknown method 'domain_frobnicate'" in problems
        assert (
            "EXEMPT entry 'domain_frobnicate' is not a StatefulDriver method" in problems
        )
