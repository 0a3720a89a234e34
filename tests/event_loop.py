"""Reference oracle for ``aoi.sim``: a discrete-event simulation that
steps through every arrival and delivery in time order, one Python event
at a time.

It has the engine's tie rule (a completion at exactly an arrival instant is
processed first), trace format and event budget (arrivals plus
deliveries), but draws its own stream, so the two agree exactly on
deterministic laws and within their error bars otherwise.
"""

from __future__ import annotations

import csv

import numpy as np

from aoi.distributions import Distribution
from aoi.errors import DivergentAge
from aoi.sim import AgeEstimate, CycleRecord, Discipline, SimConfig, _batch_ci

_CHUNK = 8192


class _Stream:
    """Chunked sampler: per-draw cost stays low inside the event loop."""

    __slots__ = ("dist", "rng", "buf", "pos")

    def __init__(self, dist: Distribution, rng: np.random.Generator):
        self.dist = dist
        self.rng = rng
        self.buf: list[float] = []
        self.pos = 0

    def next(self) -> float:
        if self.pos >= len(self.buf):
            self.buf = self.dist.sample_array(self.rng, _CHUNK).tolist()
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


class _Trace:
    def __init__(self, path):
        self.fh = open(path, "w", newline="")
        self.writer = csv.writer(self.fh, lineterminator="\n")
        self.writer.writerow(["time", "event", "age_after_event"])

    def row(self, time: float, event: str, age: float):
        self.writer.writerow([repr(time), event, repr(age)])

    def close(self):
        self.fh.close()


def run_event_loop(config: SimConfig, trace_path=None
                   ) -> tuple[AgeEstimate, list[CycleRecord]]:
    """Simulate event by event until ``target_cycles`` cycles close and
    return the time-average age plus the list of per-cycle records."""
    trace = _Trace(trace_path) if trace_path is not None else None
    try:
        return _simulate(config, trace)
    finally:
        if trace is not None:
            trace.close()


def _simulate(config, trace):
    rng = np.random.default_rng(config.seed)
    arrivals = _Stream(config.interarrival, rng)
    services = _Stream(config.service, rng)
    preemptive = config.discipline is Discipline.PREEMPTION
    need = config.target_cycles + 1
    max_events = config.effective_max_events

    t_arr = arrivals.next()     # absolute time of the next arrival
    n_arrivals = 1              # arrivals drawn so far (t_arr included)
    busy = False
    svc_end = svc_gen = 0.0
    svc_idx = 0                 # arrival index of the update in service
    newest_gen = 0.0            # generation time feeding the age (trace)

    # Previous successful arrival (dropping closes cycles at arrivals).
    prev_gen = 0.0
    prev_idx = 0
    prev_busy = 0.0
    prev_delivery = 0.0
    have_prev = False

    n_deliveries = 0
    last_delivery = 0.0
    records: list[CycleRecord] = []
    areas: list[float] = []
    lengths: list[float] = []
    events = 0

    while n_deliveries < need:
        events += 1
        if events > max_events:
            raise DivergentAge(
                f"no {need} deliveries within {max_events} events "
                f"({n_deliveries} seen); success probability may be zero")
        if busy and svc_end <= t_arr:
            # Completion first on ties: the delivery succeeds and the
            # simultaneous arrival will find an idle server.
            d, g = svc_end, svc_gen
            n_deliveries += 1
            if n_deliveries >= 2:
                dt = d - last_delivery
                areas.append(0.5 * ((last_delivery - newest_gen)
                                    + (d - newest_gen)) * dt)
                lengths.append(dt)
            if preemptive:
                if have_prev:
                    records.append(CycleRecord(
                        g=g - prev_gen, w=g - prev_delivery,
                        busy=prev_busy, k=svc_idx - prev_idx))
                prev_gen, prev_idx, prev_busy = g, svc_idx, d - g
                prev_delivery = d
                have_prev = True
            newest_gen = g
            last_delivery = d
            busy = False
            if trace:
                trace.row(d, "departure", d - newest_gen)
        else:
            # Arrival event.
            if busy:
                if preemptive:
                    svc_gen, svc_idx = t_arr, n_arrivals
                    svc_end = t_arr + services.next()
                    if trace:
                        trace.row(t_arr, "arrival_preempt", t_arr - newest_gen)
                else:
                    if trace:
                        trace.row(t_arr, "arrival_dropped", t_arr - newest_gen)
            else:
                svc_gen, svc_idx = t_arr, n_arrivals
                svc_end = t_arr + services.next()
                busy = True
                if not preemptive:
                    # Arrival at an idle server is the successful arrival.
                    if have_prev:
                        records.append(CycleRecord(
                            g=t_arr - prev_gen, w=t_arr - prev_delivery,
                            busy=prev_busy, k=n_arrivals - prev_idx))
                    prev_gen, prev_idx = t_arr, n_arrivals
                    prev_busy = svc_end - t_arr
                    prev_delivery = svc_end
                    have_prev = True
                if trace:
                    trace.row(t_arr, "arrival_success", t_arr - newest_gen)
            t_arr += arrivals.next()
            n_arrivals += 1

    value = sum(areas) / sum(lengths)
    ci = _batch_ci(areas, lengths, value)
    estimate = AgeEstimate(value=value, ci_half_width=ci,
                           cycles_used=len(records), method="simulation")
    return estimate, records
