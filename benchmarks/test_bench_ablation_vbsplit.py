"""Ablation A1: k-way virtual block split.

The paper (Section 3.3.1) notes a physical block "can be divided into
multiple virtual blocks rather than two; however, the performance
enhancement and the overhead of maintaining the virtual blocks should
be balanced."  This bench sweeps the split factor.
"""

from conftest import compare, read_gain

from repro.analysis.tables import ascii_table, format_pct
from repro.scenario.sweep import set_paths


def test_ablation_vb_split(benchmark, runner, ablation_spec):
    def run():
        rows = []
        for split in (2, 3, 4):
            spec = set_paths(ablation_spec, [("ppb.vb_split", split)])
            base, ppb = compare(runner, spec)
            base_erases, ppb_erases = base.stats.erase_count, ppb.stats.erase_count
            erase_delta = (
                (ppb_erases - base_erases) / base_erases if base_erases else 0.0
            )
            rows.append([f"{split}-way", format_pct(read_gain(base, ppb)),
                         format_pct(erase_delta, signed=True)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(ascii_table(["VB split", "read gain", "erase delta"], rows,
                      title="Ablation: k-way virtual block split (web-sql, 4x)"))
    gains = [float(r[1].rstrip("%")) for r in rows]
    assert all(g > 0 for g in gains), "every split factor should beat the baseline"
