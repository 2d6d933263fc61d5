"""Golden text of the paper figures and the quickstart comparison.

``data/figures_tiny.txt`` pins what ``render_reports(run_figures(...))``
prints for every artifact (Table 1, Figs. 12-18) at a tiny scale, and
``data/quick_comparison.txt`` pins ``quick_comparison(num_requests=4000)``.
At this scale some shape checks print ``[FAIL]``: that is part of the
pinned text, not a defect.  Regenerate only when a change is *meant* to
alter results::

    PYTHONPATH=src python -c "
    from repro.bench.figures import BenchScale
    from repro.bench.reporting import render_reports, run_figures
    scale = BenchScale('tiny', num_requests=4000, blocks_per_chip=96)
    print(render_reports(run_figures(None, scale=scale)))
    " > tests/golden/data/figures_tiny.txt
    PYTHONPATH=src python -c "
    from repro import quick_comparison
    print(quick_comparison(num_requests=4000))
    " > tests/golden/data/quick_comparison.txt
"""

import os

from repro import quick_comparison
from repro.bench.figures import BenchScale
from repro.bench.memo import ReplayRunner
from repro.bench.reporting import render_reports, run_figures

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

TINY = BenchScale("tiny", num_requests=4000, blocks_per_chip=96)


def _golden(name: str) -> str:
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as handle:
        return handle.read()


def test_figure_text_is_byte_identical():
    runner = ReplayRunner()
    text = render_reports(run_figures(None, runner, scale=TINY))
    assert text + "\n" == _golden("figures_tiny.txt")
    # 20 distinct replays: 16 speed-sweep points (2 traces x 4 ratios x
    # 2 FTLs) that Figs. 13/14/16/17 share, with Fig. 18 reusing the 2x
    # ones and Figs. 12/15 the 5x ones, plus Figs. 12/15's 4 at 8 KB.
    assert runner.stats.misses == 20


def test_quick_comparison_text_is_byte_identical():
    assert quick_comparison(num_requests=4000) + "\n" == _golden("quick_comparison.txt")
