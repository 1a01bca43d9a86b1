"""Positive controls for the open-loop generator.

A fake server on a fake clock stalls 200 ms once.  An open loop must
charge that stall to the *later* requests that came due during it -- a
closed loop, timing each request from its actual start, would hide it --
and a starved generator must show up in its own lateness.
"""

from benchmarks.wallclock.openloop import DONE, Job, OpenLoop, Server
from benchmarks.wallclock.stats import percentile

RATE = 1000.0          # one arrival per millisecond
SERVICE_S = 0.0002     # each request takes 0.2 ms of server time
STALL_S = 0.2


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def idle(self, seconds: float) -> None:
        self.now += seconds


class StallingServer(Server):
    """One operation per request; request ``stall_at`` takes 200 ms."""

    def __init__(self, clock: FakeClock, requests: int,
                 stall_at: int = -1) -> None:
        self.clock = clock
        self.requests = requests
        self.stall_at = stall_at
        self.started = {}

    def accepting(self, now: float) -> bool:
        return now < self.requests / RATE

    def start(self, job: Job) -> None:
        pass

    def advance(self, job: Job) -> int:
        self.started[job.index] = self.clock.now
        self.clock.now += STALL_S if job.index == self.stall_at \
            else SERVICE_S
        return DONE


def run(server: StallingServer, clock: FakeClock, idle=None):
    loop = OpenLoop(RATE, max_sessions=2, op_gap_s=0.0, clock=clock,
                    idle=idle or clock.idle)
    jobs = sorted(loop.run(server), key=lambda job: job.index)
    return loop, jobs


def test_unstalled_requests_are_served_on_time():
    clock = FakeClock()
    _loop, jobs = run(StallingServer(clock, 1000), clock)
    assert len(jobs) >= 999
    assert max(job.latency for job in jobs) < 0.001


def test_a_server_stall_is_paid_by_later_requests():
    clock = FakeClock()
    server = StallingServer(clock, 1000, stall_at=300)
    _loop, jobs = run(server, clock)
    latency = {job.index: job.latency for job in jobs}
    # The stalled request itself, and those that came due behind it.
    assert latency[300] >= STALL_S
    assert latency[301] > 0.19
    assert latency[400] > 0.05
    behind = [i for i in range(301, 1000) if latency[i] > 0.01]
    assert len(behind) >= 150, "the stall must spread over later arrivals"
    # The backlog drains: requests well after the stall are on time again.
    assert latency[900] < 0.001
    # What a closed loop would have reported for the same requests:
    # time from each request's actual start.  The stall vanishes from all
    # but the one request that suffered it.
    service = {job.index: job.done_at - server.started[job.index]
               for job in jobs}
    assert max(service[i] for i in range(301, 1000)) < 0.001


def test_a_starved_generator_shows_in_its_own_lateness():
    clock = FakeClock()
    starved = {"done": False}

    def oversleeping_idle(seconds: float) -> None:
        if clock.now > 0.3 and not starved["done"]:
            starved["done"] = True
            seconds += STALL_S      # the generator itself loses 200 ms
        clock.idle(seconds)

    _loop, jobs = run(StallingServer(clock, 1000), clock,
                      idle=oversleeping_idle)
    late_ms = sorted((job.noticed - job.due) * 1000.0 for job in jobs)
    assert percentile(late_ms, 99) > 100.0
    assert percentile(late_ms, 50) < 1.0
    # And the requests are still timed from when they were due.
    assert max(job.latency for job in jobs) >= 0.19
