#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure."""

import io
import sys

from repro.experiments import figures
from repro.experiments.report import render_shape_check
from repro.workloads import ALL_WORKLOADS

out = io.StringIO()
w = out.write

w("# EXPERIMENTS — paper vs. measured\n\n")
w("Generated by `python scripts/generate_experiments_md.py` from live\n")
w("simulation runs (seeds fixed; results are exactly reproducible).\n")
w("Absolute values are not comparable to the paper's testbed — the\n")
w("substrate is a scaled trace-driven simulator (see DESIGN.md) — so\n")
w("each experiment reports the **shape**: the fraction of the paper's\n")
w("pairwise system orderings the reproduction preserves, plus the\n")
w("headline ratios the narrative rests on.\n\n")
w("To dig into any number here: `python -m repro critpath` attributes\n")
w("a run's latency to `(device, phase)` pairs (the critical path behind\n")
w("a figure's mean/p99), and `python -m repro bench` snapshots the\n")
w("canonical suite into `BENCH_<n>.json` so `--compare` can flag\n")
w("regressions against `benchmarks/BENCH_BASELINE.json` before they\n")
w("reach this file.  See docs/OBSERVABILITY.md.  Every `repro figure`\n")
w("run is also recorded in the persistent run ledger, so\n")
w("`python -m repro ledger diff` can explain a changed number by its\n")
w("provenance (seed, config override, commit) — see docs/LEDGER.md.\n\n")

def emit(result):
    w(f"## {result.figure}: {result.title}\n\n")
    w(f"Metric: {result.metric} ({result.better} is better)\n\n")
    w("| system | measured | paper |\n|---|---:|---:|\n")
    for name in ("fusion-io", "raid0", "dedup", "lru", "icash"):
        m = result.measured.get(name)
        p = result.paper.get(name)
        mcell = f"{m:.2f}" if m is not None else "—"
        pcell = f"{p:.2f}" if p is not None else "—"
        w(f"| {name} | {mcell} | {pcell} |\n")
    w(f"\nShape score: **{result.shape_score():.0%}**\n\n```\n")
    w(render_shape_check(result.measured, result.paper))
    w("\n```\n\n")

w("## Table 4: workload characteristics\n\n")
w("| workload | measured mix (R/W) | paper mix | measured avg read | paper | measured avg write | paper |\n")
w("|---|---|---|---:|---:|---:|---:|\n")
for cls in ALL_WORKLOADS:
    prof = cls(scale=0.25, n_requests=4000).measured_profile()
    paper = cls.paper_profile
    w(f"| {cls.name} | {prof.read_fraction:.1%}/{1-prof.read_fraction:.1%} "
      f"| {paper.read_fraction:.1%}/{1-paper.read_fraction:.1%} "
      f"| {prof.avg_read_bytes:.0f} B | {paper.avg_read_bytes} B "
      f"| {prof.avg_write_bytes:.0f} B | {paper.avg_write_bytes} B |\n")
w("\nRequest counts and data sizes are scaled ~1/30 (see DESIGN.md); the\n"
  "mix and size shape is what the storage behaviour depends on.\n\n")

for name, figure in figures.ALL_FIGURES.items():
    print(f"running {name}...", file=sys.stderr)
    emit(figure())

w("""## Known divergences and why

* **Magnitudes compress or stretch.** Our HDD random access (~9 ms) vs
  SSD read (~10-25 µs) gap is physical, but the paper's measured system
  hid much of the HDD cost behind the OS page cache and deep queues; our
  cache baselines therefore look relatively worse on workloads with a
  miss tail (LoadSim, Hadoop), flipping the `raid0 > lru/dedup` pairs on
  Figures 8(a)/12 — RAID0's four spindles genuinely parallelise, while
  our single-disk cache baselines eat whole mechanical misses.
* **Figure 13/14 near-ties.** The paper has pure SSD a few percent ahead
  of I-CASH on SPEC-sfs and RUBiS; our model lands them within a few
  percent of each other (sometimes I-CASH ahead) because the simulator
  does not reproduce the prototype's host-software overheads.
* **Figure 15's 2.8x.** We preserve *that* I-CASH beats the full-size
  pure-SSD system on five cloned VMs and beats the caches by >3x, but
  our margin over pure SSD is ~1.1x, not 2.8x: the real 5-VM KVM stack
  saturated the Fusion-io card's write path in ways a closed-loop
  trace replay cannot (queueing, host CPU contention).
* **CPU utilisation figures.** The paper's five systems run at similar
  wall times, so utilisations cluster within 4 points; our wall times
  spread much wider, so utilisation spreads too. The claim we do
  reproduce: I-CASH's own computation adds only a small utilisation
  delta over the pure-SSD baseline at matched workload.
* **Block-population mix.** Section 5.1 reports 1% references / 85%
  associates / 14% independents for SysBench; our ingest + online scan
  lands at ~1.5% / ~96% / ~2% — same structure, more associates because
  the synthetic content model is more uniformly family-clustered than
  real MySQL images.
""")

with open("EXPERIMENTS.md", "w") as f:
    f.write(out.getvalue())
print("wrote EXPERIMENTS.md", file=sys.stderr)
