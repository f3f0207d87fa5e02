"""Experiment harness regenerating every table and figure.

* :mod:`repro.experiments.systems` — builds the five storage
  architectures of Section 4.4 for a given workload (same SSD budget
  rules as the paper).
* :mod:`repro.experiments.runner` — closed-loop trace replay with
  transaction accounting; produces one :class:`RunResult` per
  (workload, system) pair.
* :mod:`repro.experiments.paperdata` — the numbers the paper reports, for
  side-by-side comparison.
* :mod:`repro.experiments.figures` — one registry row per figure/table
  series (`SERIES`), each run through `ALL_FIGURES`.
* :mod:`repro.experiments.validate` — every series against its floor,
  plus the headline claims.
* :mod:`repro.experiments.report` — text rendering of
  measured-vs-paper tables.
* :mod:`repro.experiments.sweeps` — one knob across values: an
  ``ICASHConfig`` field, or the open-loop arrival rate over the
  discrete-event engine (saturation knees, throughput/latency curves
  and the all-architectures knee comparison).

The package re-exports nothing: import from the module that defines a
name.
"""
