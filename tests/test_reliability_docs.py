"""docs/RELIABILITY.md is a contract: the fault catalogue, the chaos
scenario matrix (with budgets), and the instrument table must match
`repro.sim.faults` / `repro.experiments.chaos` exactly."""

import re
from pathlib import Path

import pytest

from repro.experiments import chaos
from repro.sim import faults
from repro.sim.faults import FAULT_KINDS
from repro.sim.metrics import INSTRUMENT_CATALOGUE

DOC = Path(__file__).resolve().parents[1] / "docs" / "RELIABILITY.md"

FAULT_INSTRUMENTS = ("faults_injected_total", "rebuild_io_total",
                     "degraded_mode_seconds")

SCENARIO_ROW = re.compile(
    r"^\| `([\w-]+)` \| (\w+) \| (\w+) \| (\d+) \| ([\d.]+) "
    r"\| ([\d]+|-) \| (yes|-) \|$", re.MULTILINE)


@pytest.fixture(scope="module")
def doc_text() -> str:
    return DOC.read_text()


class TestFaultCatalogueParity:
    def test_every_fault_kind_has_a_section(self, doc_text):
        sections = set(re.findall(r"^### `(\w+)`", doc_text,
                                  re.MULTILINE))
        assert sections == set(FAULT_KINDS)

    def test_corruption_targets_documented(self, doc_text):
        """Signed references are the one target; the spill gap is
        stated as a property of the scrub, with its test."""
        section = doc_text.split("### `silent_corruption`", 1)[1]
        section = section.split("\n## ", 1)[0]
        assert "`reference`" in section
        assert "Known gap" in section and "spilled" in section
        assert "test_spill_corruption_is_missed" in section

    @pytest.mark.parametrize("name", ("WEAR_FRACTION", "REBUILD_BLOCKS",
                                      "CORRUPT_BLOCKS"))
    def test_fault_sizes_documented(self, doc_text, name):
        value = getattr(faults, name)
        assert f"`{name}` ({value})" in doc_text


class TestScenarioMatrixParity:
    def rows(self, doc_text):
        return {m.group(1): m.groups()
                for m in SCENARIO_ROW.finditer(doc_text)}

    def test_documented_ids_match_shipped_scenarios(self, doc_text):
        documented = set(self.rows(doc_text))
        shipped = {s.scenario_id for s in chaos.SCENARIOS}
        assert documented == shipped

    def test_budgets_match(self, doc_text):
        rows = self.rows(doc_text)
        for scenario in chaos.SCENARIOS:
            (_id, workload, kind, budget, recovery, loss,
             detect) = rows[scenario.scenario_id]
            assert workload == scenario.workload
            assert kind == scenario.fault_kind
            assert int(budget) == scenario.breach_budget
            assert float(recovery) == scenario.max_recovery_s
            doc_loss = None if loss == "-" else int(loss)
            assert doc_loss == scenario.max_loss_blocks
            assert (detect == "yes") == scenario.must_detect

    def test_quick_column_documented(self, doc_text):
        # --quick is described as the sysbench column; keep both true.
        assert all(s.workload == "sysbench"
                   for s in chaos.quick_scenarios())
        assert "SysBench column" in doc_text


class TestInstrumentParity:
    @pytest.mark.parametrize("name", FAULT_INSTRUMENTS)
    def test_instrument_in_catalogue_and_doc(self, doc_text, name):
        spec = INSTRUMENT_CATALOGUE[name]
        assert spec.kind == "counter"
        row = re.search(
            rf"^\| `{name}` \| (\w+) \| (\S+) \|", doc_text,
            re.MULTILINE)
        assert row is not None, f"{name} missing from doc table"
        assert row.group(1) == spec.kind
        assert row.group(2) == spec.unit


class TestCrossReferences:
    def test_doc_names_real_modules_and_tests(self, doc_text):
        root = Path(__file__).resolve().parents[1]
        assert "tests/test_reliability_docs.py" in doc_text
        assert (root / "tests" / "test_recovery_edges.py").exists()
        assert "tests/test_recovery_edges.py" in doc_text
        assert "repro.sim.faults" in doc_text
        assert "repro.experiments.chaos" in doc_text
