"""Table 1: device parameter validation (timing model sanity)."""

import gc
import tracemalloc

from conftest import report_and_check

from repro.bench.figures import table1
from repro.ftl.conventional import ConventionalFTL
from repro.nand.device import NandDevice
from repro.nand.latency import LatencyModel
from repro.nand.spec import table1_spec
from repro.sim.ssd import SSD

#: Host bytes per physical page after an 80% warm fill of the Table 1
#: device (4,194,048 pages) under the conventional FTL, counting the
#: device, the FTL and its page map (tracemalloc): 28.7 measured.  Page
#: maps built from Python lists measured 76.3.
MAX_HOST_BYTES_PER_PAGE = 32.0


def test_table1_parameters(benchmark):
    report = benchmark.pedantic(table1, rounds=1, iterations=1)
    report_and_check(report)


def test_latency_model_construction_speed(benchmark):
    """Building the per-page latency tables for the full 64 GB device."""
    spec = table1_spec(speed_ratio=5.0)
    model = benchmark(LatencyModel, spec)
    assert model.fastest_page_read_us() == 49.0


def test_table1_warm_fill_host_memory(benchmark):
    """Per-page host memory at the paper's geometry stays small."""
    spec = table1_spec()

    def warm_filled() -> ConventionalFTL:
        ftl = ConventionalFTL(NandDevice(spec))
        SSD(ftl).warm_fill(0.8)
        return ftl

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ftl = benchmark.pedantic(warm_filled, rounds=1, iterations=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ftl.map.mapped_count == int(ftl.num_lpns * 0.8)
    per_page = held / spec.total_pages
    print(f"Table 1 warm fill: {held / 2**20:.1f} MiB host, {per_page:.1f} B/page")
    assert per_page <= MAX_HOST_BYTES_PER_PAGE
