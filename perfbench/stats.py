"""Arithmetic of the repository benchmark.

Kept apart from process and socket handling so that test_stats.py can
check every rule on synthetic inputs, with no server.
"""

import math
import statistics
from dataclasses import dataclass

# A percentile is reported only when at least this many samples of its
# phase lie beyond it.
MIN_BEYOND = 10

# A phase's p99 is the median of the p99s of this many consecutive
# windows (fewer when the phase cannot give each window 1000 samples).
P99_WINDOWS = 5

# Outcome codes of one request, as perfbench_harness writes them.
OK, REJECTED, WRONG_LABEL, MISROUTED, DUPLICATE, UNANSWERED = range(6)


def nearest_rank(sorted_values, q):
    """The q-th percentile (integer q in 1..100) by the nearest-rank rule:
    the smallest sample with at least q % of the sample at or below it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[rank(len(sorted_values), q) - 1]


def rank(n, q):
    """1-based nearest-rank position of the q-th percentile in n samples."""
    return max(1, (q * n + 99) // 100)


def beyond(n, q):
    """Samples strictly above the q-th percentile's position."""
    return n - rank(n, q)


def supports(n, q, min_beyond=MIN_BEYOND):
    """Whether n samples leave at least `min_beyond` beyond percentile q."""
    return n > 0 and beyond(n, q) >= min_beyond


def min_samples(q, min_beyond=MIN_BEYOND):
    """Smallest sample count that supports percentile q."""
    n = 1
    while not supports(n, q, min_beyond):
        n += 1
    return n


def p99_windows(n):
    """Window count for a phase of n samples: P99_WINDOWS, or as many as
    still give each one the samples a p99 needs, and at least one."""
    return max(1, min(P99_WINDOWS, n // min_samples(99)))


def windowed_p99(values_in_time_order):
    """Median of the nearest-rank p99s of consecutive equal-count windows
    (p99_windows of them). The count is fixed, not grown with the rate, so
    each window spans several seconds: a stall of the shared machine that
    lands in fewer than half of them is filtered, while any event that
    recurs within a window's span moves every window and the median."""
    n = len(values_in_time_order)
    count = p99_windows(n)
    size = n // count
    return statistics.median(
        nearest_rank(sorted(values_in_time_order[w * size:(w + 1) * size]),
                     99)
        for w in range(count))


def latency_summary(values_ms):
    """p50 and windowed p99 of a phase, values in the order their requests
    were due. Failed requests enter as math.inf, so a failure counts as
    missing every latency limit."""
    if not values_ms:
        return {"n": 0, "p50": math.inf, "p99": math.inf, "windows": 0,
                "p99_supported": False}
    return {"n": len(values_ms), "p50": nearest_rank(sorted(values_ms), 50),
            "p99": windowed_p99(values_ms),
            "windows": p99_windows(len(values_ms)),
            "p99_supported": supports(len(values_ms), 99)}


@dataclass
class Request:
    index: int
    conn: int
    tenant: int
    due_us: float
    sent_us: float
    recv_us: float
    status: int
    label: int
    batch: int
    server_us: float
    check: int
    warmup: bool

    @property
    def client_ms(self):
        """Due instant to decoded response; inf when not answered ok."""
        if self.check != OK or self.recv_us < 0:
            return math.inf
        return (self.recv_us - self.due_us) / 1e3


@dataclass
class Feedback:
    request: int
    conn: int
    tenant: int
    sent_us: float
    recv_us: float
    status: int


def load_records(path):
    """Reads a perfbench_harness client record file."""
    requests, feedbacks = [], []
    with open(path, encoding="ascii") as handle:
        next(handle)  # header
        for line in handle:
            f = line.rstrip("\n").split(",")
            if f[0] == "r":
                requests.append(Request(
                    int(f[1]), int(f[2]), int(f[3]), float(f[4]),
                    float(f[5]), float(f[6]), int(f[7]), int(f[8]),
                    int(f[9]), float(f[10]), int(f[11]), f[12] == "1"))
            elif f[0] == "f":
                feedbacks.append(Feedback(int(f[1]), int(f[2]), int(f[3]),
                                          float(f[5]), float(f[6]),
                                          int(f[7])))
    return requests, feedbacks


def wire_split(client_ms, inserver_ms):
    """Client latency minus the server's own enqueue-to-dispatch-end time:
    decode, event-loop turns, response encode, socket and client."""
    return client_ms - inserver_ms


def failure_counts(requests, feedbacks):
    """Every frame that did not come back as it should, by cause."""
    counts = {"rejected": 0, "unanswered": 0, "wrong": 0,
              "feedback_not_accepted": 0}
    for r in requests:
        if r.check == REJECTED:
            counts["rejected"] += 1
        elif r.check == UNANSWERED:
            counts["unanswered"] += 1
        elif r.check != OK:  # wrong label, misrouted or duplicated
            counts["wrong"] += 1
    counts["feedback_not_accepted"] = sum(1 for f in feedbacks
                                          if f.status != 0)
    return counts


def frames_sent(requests, feedbacks):
    return sum(1 for r in requests if r.sent_us >= 0) + len(feedbacks)


def failed_share(counts, sent):
    """(rejected + unanswered + wrong + feedback not accepted) / sent."""
    return sum(counts.values()) / sent if sent else 0.0


def backlog_at_end(requests):
    """Requests still unanswered at the instant the last one was sent."""
    sent = [r.sent_us for r in requests if r.sent_us >= 0]
    if not sent:
        return 0
    end = max(sent)
    return sum(1 for r in requests
               if 0 <= r.sent_us <= end and (r.recv_us < 0 or r.recv_us > end))


def phase_summary(requests, feedbacks, seconds):
    """Metrics of one open-loop phase; warm-up requests are excluded from
    every timing but not from the failure accounting."""
    timed = sorted((r for r in requests if not r.warmup),
                   key=lambda r: r.due_us)
    ok = [r for r in timed if r.check == OK]
    lat = latency_summary([r.client_ms for r in timed])
    inserver = latency_summary([r.server_us / 1e3 for r in ok])
    outside = latency_summary([wire_split(r.client_ms, r.server_us / 1e3)
                               for r in ok])
    lag = sorted((r.sent_us - r.due_us) / 1e3
                 for r in timed if r.sent_us >= 0)
    acks = latency_summary([(f.recv_us - f.sent_us) / 1e3
                            for f in feedbacks if f.status == 0])
    counts = failure_counts(requests, feedbacks)
    return {
        "n": lat["n"], "lat": lat, "inserver": inserver, "outside": outside,
        # Plain, not windowed: a generator that falls behind in any part of
        # the phase makes the run invalid.
        "lag_p99": nearest_rank(lag, 99) if lag else math.inf,
        "acks": acks,
        "batch_mean": statistics.fmean([r.batch for r in ok]) if ok else 0.0,
        "achieved_rps": len(ok) / seconds,
        "backlog": backlog_at_end(timed),
        "counts": counts, "sent": frames_sent(requests, feedbacks),
        "feedback": len(feedbacks),
        "feedback_accepted": sum(1 for f in feedbacks if f.status == 0),
    }


def step_passes(p99_ms, limit_ms, failed, backlog, rate_rps):
    """The capacity ladder's stop rule. A step passes when its p99 is under
    the limit, nothing failed, and the queue is not growing: the backlog
    left when the last request went out could be answered within the
    limit at the offered rate."""
    return (failed == 0 and p99_ms < limit_ms
            and backlog <= rate_rps * limit_ms / 1e3)


@dataclass
class StepResult:
    passed: bool
    achieved_rps: float


def find_capacity(measure, start_rps, factor, max_steps, refine):
    """Highest rate whose step passes. measure(rate) -> StepResult.

    Walks a geometric ladder from start_rps (up while steps pass, down
    while they fail) until the outcome flips or max_steps run, then
    bisects the bracketing pair `refine` times. A failing rate is measured
    once more and fails only if that fails too, so one stall of a shared
    machine near the knee does not end the climb. Returns the achieved
    rate of the highest passing step (0.0 if none passed) and every step
    measured."""
    steps = []

    def probe(rate):
        for _ in range(2):
            result = measure(rate)
            steps.append((rate, result))
            if result.passed:
                break
        return result

    first = probe(start_rps)
    best = (start_rps, first) if first.passed else None
    fail_rate = None if first.passed else start_rps
    rate = start_rps
    for _ in range(max_steps - 1):
        if best is not None and fail_rate is not None:
            break
        rate = rate * factor if first.passed else rate / factor
        result = probe(rate)
        if result.passed:
            best = (rate, result)
        else:
            fail_rate = rate
    if best is not None and fail_rate is not None:
        for _ in range(refine):
            mid = math.sqrt(best[0] * fail_rate)
            result = probe(mid)
            if result.passed:
                best = (mid, result)
            else:
                fail_rate = mid
    return (best[1].achieved_rps if best else 0.0), steps


def step_other_ms(step_ms, nn_ms):
    """Part of one training step no timed nn op explains (dropout unpack,
    shuffle, gradient zeroing)."""
    return step_ms - sum(nn_ms)
