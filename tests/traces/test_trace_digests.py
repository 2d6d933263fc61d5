"""Byte-level pins on the generated request streams.

The determinism tests compare two runs of the same code with each
other; these compare against digests captured from an earlier
implementation, so an optimisation of a generator that changes one
request (op, offset, size or arrival time) fails here.  Every digest
covers ``(op, offset, size, repr(timestamp_us))`` of each request in
order.
"""

import hashlib

import pytest

from repro.scenario.run import build_trace
from repro.scenario.spec import ScenarioSpec, TenantSpec
from repro.traces.workloads import WORKLOADS

NUM_REQUESTS = 20_000

DIGESTS = {
    ("media-server", 0):
        "8dcdc791b822d6f5b232fc4ed370dbb3f0236c8aeed08bdd21988e11186bd310",
    ("media-server", 7):
        "893b308feb04a0b59eefcf7bfe33b5ee73f5946c05993ec003b7a3426d5f6ac1",
    ("web-sql", 0):
        "2cbb7ca21c1007579ce0338427d86ba02dfaa45e748e1c5d597b61b52faa1d5d",
    ("web-sql", 7):
        "f5bb5da3d0be4ecd56aefe6d0ca308965d056053931252f34b3e4580a9d00a5b",
    ("uniform", 0):
        "fe9299bcc2b173c7d55a1b54032ee818e1ca01e6f49c9866b13688ca33b33356",
    ("uniform", 7):
        "6132b9f1fab36bacb047e1053f8f177be9145c48dbcc419732cd24c92eb005aa",
    ("pattern-suite", 0):
        "696bc993d336cd2c9912b848fd03d5b41f44d916023b482948397dd13d1cb8c1",
    ("pattern-suite", 7):
        "22d9332202ba98d1f8bf2f6a3abbafb87c40c98e658787a875a0b88dbb3dfa34",
}

TENANT_DIGEST = "2ded771266fc34f4c73316eb09283dc01c0f81de4ebcebc574c4d7e37e30e7d4"

TENANT_SPEC = ScenarioSpec(
    seed=3,
    tenants=(
        TenantSpec(name="db", workload="web-sql", num_requests=6000),
        TenantSpec(
            name="media", workload="media-server", num_requests=4000, share=0.5,
        ),
        TenantSpec(
            name="logger", workload="uniform", num_requests=3000, share=0.5,
            workload_kwargs=(("read_fraction", 0.2),),
        ),
    ),
)


def trace_digest(trace) -> str:
    """sha256 over every request's (op, offset, size, timestamp_us)."""
    h = hashlib.sha256()
    for r in trace:
        h.update(f"{r.op.value},{r.offset},{r.size},{r.timestamp_us!r}\n".encode())
    return h.hexdigest()


def test_every_registered_workload_is_pinned():
    assert {name for name, _ in DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize("workload,seed", sorted(DIGESTS))
def test_generator_bytes_are_pinned(workload, seed):
    trace = build_trace(
        ScenarioSpec(workload=workload, num_requests=NUM_REQUESTS, seed=seed)
    )
    assert len(trace) == NUM_REQUESTS
    assert trace_digest(trace) == DIGESTS[workload, seed]


def test_tenant_merged_bytes_are_pinned():
    assert trace_digest(build_trace(TENANT_SPEC)) == TENANT_DIGEST
