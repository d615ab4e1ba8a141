"""Tests of the benchmark's own arithmetic, on synthetic inputs, with no
server:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import stats


def request(index, due, sent, recv, server_us=0.0, check=stats.OK,
            batch=1, warmup=False):
    return stats.Request(index, 0, 0, due, sent, recv, 0, 0, batch,
                         server_us, check, warmup)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(stats.nearest_rank(values, 99), 99)
        self.assertEqual(stats.nearest_rank(values, 100), 100)
        self.assertEqual(stats.nearest_rank([7.0], 99), 7.0)
        # 0.99 * 1000 is not exactly 990 in floating point; the rank is.
        self.assertEqual(stats.rank(1000, 99), 990)
        self.assertEqual(stats.rank(1001, 99), 991)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)

    def test_ten_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertTrue(stats.supports(1000, 99))
        self.assertFalse(stats.supports(999, 99))
        self.assertEqual(stats.min_samples(99), 1000)
        self.assertEqual(stats.min_samples(50), 20)
        self.assertFalse(stats.supports(0, 50))

    def test_window_count_is_fixed(self):
        self.assertEqual(stats.p99_windows(999), 1)
        self.assertEqual(stats.p99_windows(3000), 3)
        self.assertEqual(stats.p99_windows(4999), 4)
        # Five at most, however many samples a faster rate gives.
        self.assertEqual(stats.p99_windows(5000), 5)
        self.assertEqual(stats.p99_windows(70_000), 5)

    def test_windowed_p99(self):
        calm = [1.0] * 985 + [2.0] * 15
        stalled = [1.0] * 900 + [50.0] * 100
        # 3000 samples: three windows, one stalled.
        self.assertEqual(stats.windowed_p99(calm + stalled + calm), 2.0)
        self.assertEqual(
            stats.nearest_rank(sorted(calm + stalled + calm), 99), 50.0)
        # Fewer than two windows' worth: the plain p99.
        self.assertEqual(stats.windowed_p99(stalled),
                         stats.nearest_rank(sorted(stalled), 99))
        # One stalled stretch in five windows does not move the median.
        self.assertEqual(stats.windowed_p99(calm * 2 + stalled + calm * 2),
                         2.0)

    def test_recurring_event_moves_the_median(self):
        # 60 samples delayed every 2500: 2.4 % of the phase, landing in four
        # of the five 2000-sample windows. Windows of 1000 samples would
        # catch it in only four of ten and report the calm figure.
        values = []
        for _ in range(4):
            values += [50.0] * 60 + [1.0] * 2440
        self.assertEqual(len(values), 10_000)
        self.assertEqual(stats.windowed_p99(values), 50.0)
        self.assertEqual(stats.latency_summary(values)["windows"], 5)

    def test_failures_count_as_infinitely_late(self):
        summary = stats.latency_summary([1.0] * 989 + [math.inf] * 11)
        self.assertEqual(summary["p50"], 1.0)
        self.assertEqual(summary["p99"], math.inf)
        self.assertTrue(summary["p99_supported"])


class LadderTest(unittest.TestCase):
    def test_stop_rule(self):
        self.assertTrue(stats.step_passes(9.0, 10.0, 0, 0, 1000))
        self.assertFalse(stats.step_passes(10.0, 10.0, 0, 0, 1000))
        self.assertFalse(stats.step_passes(1.0, 10.0, 1, 0, 1000))
        # 1000 req/s within a 10 ms limit leaves room for 10 queued.
        self.assertTrue(stats.step_passes(1.0, 10.0, 0, 10, 1000))
        self.assertFalse(stats.step_passes(1.0, 10.0, 0, 11, 1000))

    def ladder(self, true_capacity, start, refine=2, max_steps=6,
               stalls=()):
        calls = []

        def measure(rate):
            calls.append(rate)
            stalled = len(calls) in stalls
            return stats.StepResult(rate <= true_capacity and not stalled,
                                    rate * 0.99)

        capacity, steps = stats.find_capacity(measure, start, 1.25,
                                              max_steps, refine)
        return capacity, steps, calls

    def test_climbs_then_bisects(self):
        capacity, steps, calls = self.ladder(1300, 1000)
        # Every failing rate is measured twice.
        self.assertEqual(calls[:4], [1000, 1250.0, 1562.5, 1562.5])
        mid = math.sqrt(1250 * 1562.5)
        self.assertAlmostEqual(calls[4], mid)
        self.assertAlmostEqual(calls[6], math.sqrt(1250 * mid))
        self.assertEqual(len(calls), 8)  # 3 rates + 2 bisections, 3 retries
        passed = [rate for rate, result in steps if result.passed]
        self.assertAlmostEqual(capacity, max(passed) * 0.99)
        self.assertLessEqual(max(passed), 1300)

    def test_one_stall_does_not_end_the_climb(self):
        capacity, _, calls = self.ladder(1300, 1000, refine=0, stalls=(2,))
        self.assertEqual(calls, [1000, 1250.0, 1250.0, 1562.5, 1562.5])
        self.assertAlmostEqual(capacity, 1250 * 0.99)

    def test_descends_when_start_fails(self):
        capacity, steps, calls = self.ladder(700, 1000, refine=0)
        self.assertEqual(calls, [1000, 1000, 800.0, 800.0, 640.0])
        self.assertAlmostEqual(capacity, 640.0 * 0.99)

    def test_gives_up_after_max_steps(self):
        capacity, _, calls = self.ladder(1e9, 1000, max_steps=4)
        self.assertEqual(len(calls), 4)
        self.assertAlmostEqual(capacity, 1000 * 1.25 ** 3 * 0.99)
        capacity, _, calls = self.ladder(1.0, 1000, max_steps=3)
        self.assertEqual(capacity, 0.0)
        self.assertEqual(len(calls), 6)


class WireSplitTest(unittest.TestCase):
    def test_parts_add_up_to_client_latency(self):
        r = request(0, due=100.0, sent=110.0, recv=2100.0, server_us=1250.0)
        client = r.client_ms
        self.assertAlmostEqual(client, 2.0)
        outside = stats.wire_split(client, r.server_us / 1e3)
        self.assertAlmostEqual(outside + r.server_us / 1e3, client)
        self.assertAlmostEqual(outside, 0.75)

    def test_phase_summary_splits_each_request(self):
        reqs = [request(i, due=1000.0 * i, sent=1000.0 * i,
                        recv=1000.0 * i + 500 + i, server_us=300.0)
                for i in range(30)]
        summary = stats.phase_summary(reqs, [], seconds=1.0)
        self.assertAlmostEqual(summary["lat"]["p50"],
                               summary["inserver"]["p50"]
                               + summary["outside"]["p50"])


class FailedShareTest(unittest.TestCase):
    def test_accounting(self):
        reqs = [request(0, 0, 1, 5),
                request(1, 0, 1, 5, check=stats.REJECTED),
                request(2, 0, 1, -1, check=stats.UNANSWERED),
                request(3, 0, 1, 5, check=stats.WRONG_LABEL),
                request(4, 0, 1, 5, check=stats.MISROUTED),
                request(5, 0, 1, 5, check=stats.DUPLICATE),
                request(6, 0, -1, -1, check=stats.UNANSWERED)]  # never sent
        feedbacks = [stats.Feedback(0, 0, 0, 6, 7, 0),
                     stats.Feedback(3, 0, 0, 6, 7, 6),   # unknown correlation
                     stats.Feedback(4, 0, 0, 6, -1, -1)]  # never acked
        counts = stats.failure_counts(reqs, feedbacks)
        self.assertEqual(counts, {"rejected": 1, "unanswered": 2, "wrong": 3,
                                  "feedback_not_accepted": 2})
        sent = stats.frames_sent(reqs, feedbacks)
        self.assertEqual(sent, 9)
        self.assertAlmostEqual(stats.failed_share(counts, sent), 8 / 9)
        self.assertEqual(stats.failed_share(counts, 0), 0.0)

    def test_warmup_is_timed_out_but_counted(self):
        reqs = [request(0, 0, 0, 100_000, warmup=True,
                        check=stats.REJECTED),
                request(1, 10, 10, 1010)]
        summary = stats.phase_summary(reqs, [], seconds=1.0)
        self.assertEqual(summary["n"], 1)
        self.assertAlmostEqual(summary["lat"]["p50"], 1.0)
        self.assertEqual(summary["counts"]["rejected"], 1)

    def test_generator_lag_is_the_plain_p99(self):
        # 20 of 1000 sends 15 ms late, all in one stretch: a windowed
        # median would hide them; the validity gate must not.
        reqs = [request(i, due=1000.0 * i,
                        sent=1000.0 * i + (15_000 if i < 20 else 50),
                        recv=1000.0 * i + 20_000)
                for i in range(1000)]
        summary = stats.phase_summary(reqs, [], seconds=1.0)
        self.assertAlmostEqual(summary["lag_p99"], 15.0)

    def test_backlog_at_end(self):
        reqs = [request(0, 0, 0, 15), request(1, 10, 10, 300),
                request(2, 20, 20, -1, check=stats.UNANSWERED)]
        self.assertEqual(stats.backlog_at_end(reqs), 2)


class TrainArithmeticTest(unittest.TestCase):
    def test_step_other(self):
        self.assertAlmostEqual(
            stats.step_other_ms(15.0, [1.5, 2.5, 0.25, 0.05]), 10.7)


if __name__ == "__main__":
    unittest.main()
