"""Measurement models layered over simulation runs.

Table 6's metric, runtime SSD writes, needs no model: it is a device
counter, read by the Table 6 series of :mod:`repro.experiments.figures`.

* :mod:`repro.metrics.energy` — the power model behind Table 5
  (watt-hours per benchmark run, per architecture).
* :mod:`repro.metrics.cpu` — host CPU utilisation behind Figures 6(b),
  8(b) and 10(b).
"""

from repro.metrics.cpu import cpu_utilization
from repro.metrics.energy import EnergyReport, EnergySpec, measure_energy

__all__ = [
    "EnergyReport",
    "EnergySpec",
    "cpu_utilization",
    "measure_energy",
]
