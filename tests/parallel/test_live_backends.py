"""Measured backends feed the live side channel and the v5 resource layer.

The forked ``multiprocessing`` ranks run a resource sampler and
stream progress/resource frames over the :class:`LiveChannel` installed
through the ambient :class:`TelemetryHub`.  These tests pin the whole
path: per-rank ``resource`` records land in the trace with backend
labels, and a hub attached to a run receives rank frames without a
tracer being involved at all.
"""

import time

import pytest

from repro.obs import Tracer, export_jsonl, validate_jsonl
from repro.obs.live import LiveChannel, TelemetryHub, use_live
from repro.obs.resource import resource_peaks
from repro.parallel import create_communicator
from repro.parallel.runtime import RecvOp, SendOp, WorkOp


def _pingpong(comm, rounds):
    other = 1 - comm.rank
    for _ in range(rounds):
        yield WorkOp(50.0)
        if comm.rank == 0:
            yield SendOp(other, 3, ("ping",), 8)
            yield RecvOp(other, 4)
        else:
            yield RecvOp(other, 3)
            yield SendOp(other, 4, ("pong",), 8)
    return comm.rank


@pytest.mark.parametrize("backend", ["multiprocessing"])
def test_traced_run_records_per_rank_resources(backend, tmp_path):
    tracer = Tracer()
    with tracer.phase(f"{backend}-pingpong", kind="compute"):
        comm = create_communicator(backend, 2, tracer=tracer)
        comm.run(_pingpong, 2)

    peaks = resource_peaks(tracer.resource_samples)
    assert set(peaks) == {0, 1}  # one sampled series per forked rank
    for rank in (0, 1):
        assert peaks[rank]["samples"] >= 2  # open + close at minimum
        assert peaks[rank]["peak_rss_bytes"] > 0
    # the peaks are mirrored as backend-labelled per-rank metrics
    labelled = {
        (s.rank, s.labels_dict.get("backend"))
        for s in tracer.metrics.samples()
        if s.name == "repro.resource.peak_rss_bytes"
    }
    assert (0, backend) in labelled and (1, backend) in labelled

    path = tmp_path / "trace.jsonl"
    export_jsonl(tracer, path)
    assert validate_jsonl(path)["resources"] == len(tracer.resource_samples)


def test_untraced_run_records_no_resources():
    comm = create_communicator("multiprocessing", 2)
    result = comm.run(_pingpong, 1)  # no tracer, no hub: plain run
    assert result.returns == [0, 1] and result.total_messages == 2


def test_live_channel_streams_rank_frames_without_tracer():
    hub = TelemetryHub()
    hub.channel = LiveChannel()
    try:
        with use_live(hub):
            comm = create_communicator("multiprocessing", 2)
            comm.run(_pingpong, 2)
        deadline = time.time() + 10.0
        while time.time() < deadline:
            hub.channel.drain(hub)
            snap = hub.snapshot()
            if len(snap["ranks"]) == 2 and len(snap["resources"]) == 2:
                break
            time.sleep(0.02)
        snap = hub.snapshot()
        # every rank streamed at least its final progress frame...
        assert set(snap["ranks"]) == {"0", "1"}
        for d in snap["ranks"].values():
            assert d["elapsed"] > 0.0 and d["msgs"] >= 2
        # ...and at least one resource frame from its sampler
        assert set(snap["resources"]) == {"0", "1"}
        for d in snap["resources"].values():
            assert d["rss_bytes"] > 0
    finally:
        hub.channel.close()


def test_live_channel_and_tracer_compose():
    hub = TelemetryHub()
    hub.channel = LiveChannel()
    tracer = Tracer()
    try:
        with use_live(hub):
            with tracer.phase("mp-live", kind="compute"):
                comm = create_communicator("multiprocessing", 2,
                                           tracer=tracer)
                comm.run(_pingpong, 1)
        assert set(resource_peaks(tracer.resource_samples)) == {0, 1}
        deadline = time.time() + 10.0
        while not hub.snapshot()["ranks"] and time.time() < deadline:
            hub.channel.drain(hub)
            time.sleep(0.02)
        assert hub.snapshot()["ranks"]  # streaming worked alongside tracing
    finally:
        hub.channel.close()
