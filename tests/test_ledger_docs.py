"""docs/LEDGER.md is a contract: the provenance-field table, the
subcommand table, the anomaly-detector constants and the schema
version statement must match `repro.ledger` / `repro.cli` exactly."""

import re
from pathlib import Path

import pytest

from repro import ledger
from repro.cli import LEDGER_SUBCOMMANDS

DOC = Path(__file__).resolve().parents[1] / "docs" / "LEDGER.md"


@pytest.fixture(scope="module")
def doc_text() -> str:
    return DOC.read_text()


class TestSchemaVersionParity:
    def test_heading_tracks_code_version(self, doc_text):
        heading = re.search(r"^## Row layout \(ledger schema version "
                            r"(\d+)\)$", doc_text, re.MULTILINE)
        assert heading is not None
        assert int(heading.group(1)) == ledger.LEDGER_SCHEMA_VERSION

    def test_schema_map_literal_matches(self, doc_text, tmp_path):
        from repro.experiments.runner import run_benchmark
        from repro.experiments.systems import make_system
        from repro.workloads import SysBenchWorkload

        expected = '`{"ledger": %d}`' % ledger.LEDGER_SCHEMA_VERSION
        assert expected in doc_text
        workload = SysBenchWorkload(scale=0.05, n_requests=50, seed=2011)
        result = run_benchmark(workload, make_system("icash", workload))
        writer = ledger.LedgerWriter(str(tmp_path))
        writer.record(result, command="run")
        assert writer.get("1").provenance["schema"] == {
            "ledger": ledger.LEDGER_SCHEMA_VERSION}


class TestFieldTableParity:
    def rows(self, doc_text, section):
        text = doc_text.split(section, 1)[1].split("\n## ", 1)[0]
        return set(re.findall(r"^\| `(\w+)` \|", text, re.MULTILINE))

    def test_provenance_fields_all_documented(self, doc_text):
        documented = self.rows(doc_text, "### Provenance fields")
        assert documented == set(ledger.PROVENANCE_FIELDS)

    def test_spec_fields_all_named(self, doc_text):
        section = doc_text.split("### Spec fields", 1)[1]
        section = section.split("### ", 1)[0]
        for field in ledger.SPEC_FIELDS:
            assert f"`{field}`" in section, f"spec field {field!r} undocumented"

    def test_recipe_table_has_a_row_per_recording_command(self, doc_text):
        layout = re.search(r"^\| `command` \| .*\((.*)\) \|$", doc_text,
                           re.MULTILINE)
        commands = set(re.findall(r"`(\w+)`", layout.group(1)))
        section = doc_text.split("### Spec fields", 1)[1]
        section = section.split("### ", 1)[0]
        documented = set(re.findall(r"^\| `(\w+)`", section,
                                    re.MULTILINE))
        assert documented == commands
        assert len(commands) == 9

    def test_filter_keys_all_named(self, doc_text):
        section = doc_text.split("## Subcommands", 1)[1]
        section = section.split("\n## ", 1)[0]
        for key in ledger.FILTER_KEYS:
            assert f"`{key}`" in section, f"filter key {key!r} undocumented"


class TestSubcommandParity:
    def test_every_subcommand_has_a_table_row(self, doc_text):
        documented = set(re.findall(r"^\| `repro ledger (\w+)` \|",
                                    doc_text, re.MULTILINE))
        assert documented == set(LEDGER_SUBCOMMANDS)


class TestAnomalyConstantParity:
    CLAIMS = (
        (r"`K = (\d+)` \(`DEFAULT_WINDOW`", "DEFAULT_WINDOW"),
        (r"at least `(\d+)` \(`MIN_HISTORY`\)", "MIN_HISTORY"),
        (r"`([\d.]+)` × MAD \(`MAD_SCALE`", "MAD_SCALE"),
        (r"`z = ([\d.]+)` \(`ANOMALY_Z`\)", "ANOMALY_Z"),
        (r"the `(\d+)%` default \(`DEFAULT_REL_TOL`\)",
         "DEFAULT_REL_TOL"),
    )

    @pytest.mark.parametrize("pattern, name", CLAIMS)
    def test_documented_constant_matches_code(self, doc_text, pattern,
                                              name):
        claim = re.search(pattern, doc_text)
        assert claim is not None, f"{name} claim missing from doc"
        documented = float(claim.group(1))
        if name == "DEFAULT_REL_TOL":
            documented /= 100.0
        assert documented == pytest.approx(getattr(ledger, name))

    def test_noise_z_comes_from_the_ledger(self, doc_text):
        claim = re.search(r"`NOISE_Z = (\d+)` from `repro\.ledger`",
                          doc_text)
        assert claim is not None
        assert float(claim.group(1)) == pytest.approx(ledger.NOISE_Z)


class TestMetricPolicyParity:
    def test_metric_table_matches_policy(self, doc_text):
        documented = dict(re.findall(
            r"^\| `(\w+)` \| (higher|lower) \|", doc_text, re.MULTILINE))
        policy = {name: direction for name, (direction, _, _)
                  in ledger.METRIC_POLICY.items()}
        assert documented == policy, (
            f"docs/LEDGER.md drifted from METRIC_POLICY: "
            f"undocumented={sorted(set(policy) - set(documented))}, "
            f"stale={sorted(set(documented) - set(policy))}")

    def test_tolerances_documented(self, doc_text):
        rows = dict(re.findall(
            r"^\| `(\w+)` \| (?:higher|lower) \| ([0-9.]+) \|",
            doc_text, re.MULTILINE))
        for name, (_, rel_tol, _) in ledger.METRIC_POLICY.items():
            assert float(rows[name]) == rel_tol, (
                f"documented rel_tol for {name} drifted")


class TestCrossReferences:
    def test_doc_names_real_modules_and_tests(self, doc_text):
        root = Path(__file__).resolve().parents[1]
        assert "repro.ledger" in doc_text
        assert "tests/test_ledger.py" in doc_text
        assert (root / "tests" / "test_ledger.py").exists()
        assert "tests/test_ledger_docs.py" in doc_text
        assert "perfbench/README.md" in doc_text
        assert "`ledger.overhead_ms`" in doc_text
        assert "`ledger.overhead_ms`" \
            in (root / "perfbench" / "README.md").read_text()

    def test_store_names_match_code(self, doc_text):
        assert f"`{ledger.DEFAULT_DIR}/`" in doc_text
        assert f"`{ledger.LOCK_NAME}`" in doc_text
        assert f"`{ledger.EXPORT_NAME}`" in doc_text
        assert f"`{ledger.ENV_TOGGLE}=0`" in doc_text
        assert f"`{ledger.ENV_DIR}`" in doc_text
