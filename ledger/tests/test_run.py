"""Self-tests of the ledger's statistics, result schema and correctness
checks. Run from the repository root:

    python3 -m unittest discover -s ledger/tests
"""

import hashlib
import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

# A real fig2 stats line (figs_all, seed 0xF4F5, reference geometry).
FIG2_LINE = (
    "[   2.0s] figure 2: 1125 trials over 1400 units on 2 threads in 1.99s (565 trials/s; "
    "produce 1.99s; sweep 0.12s, golden 0.00s, trials 3.12s worker-time); checkpoints served "
    "1400 units (0 warm / 1400 cold), skipping 0 warm-up cycles; cutoff ended 201/1125 trials "
    "early, skipping 17253752 of 46375953 window cycles (37%); trial mix: 82% simulated / 18% "
    "cut / 0% pruned"
)
# A real interval-pruned fig4 stats line (paper scale).
FIG4_LINE = (
    "fig4: 11184 trials over 233 units on 2 threads in 24.76s (452 trials/s; produce 24.71s; "
    "sweep 0.19s, golden 42.05s, trials 7.10s worker-time); cutoff ended 2027/11184 trials "
    "early, skipping 18192267 of 23986430 window cycles (76%); liveness oracle pruned "
    "8292/11184 trials, skipping 75815047 window cycles (8292 statically, via the interval "
    "map; 0 shadow runs paid, 0 avoided); trial mix: 8% simulated / 18% cut / 74% pruned"
)
WARM_LINE = (
    "[   0.5s] µarch campaign: 11184 trials over 233 units on 2 threads in 0.12s (93902 "
    "trials/s; produce 0.12s; sweep 0.00s, golden 0.00s, trials 0.00s worker-time); trial "
    "store served 11184 trials, replaying 99801477 window cycles"
)
FIGURE = "==== Figure 4 ====\ncategory      25      50\nmasked      91.3    91.3\n".encode()


def pin_for(stdout, lines):
    return {
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "planned": [run.parse_stats(line)["planned"] for line in lines],
    }


class Stats(unittest.TestCase):
    def test_median_and_quartiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        self.assertEqual(run.median(xs), 5.5)
        q1, q3 = run.quartiles(xs)
        ref = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q3), (ref[0], ref[2]))
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(run.spread(xs), (8.25 - 2.75) / 5.5)

    def test_p99_is_nearest_rank(self):
        xs = list(range(1, 201))  # 1..200
        self.assertEqual(run.percentile(xs, 99), 198)
        self.assertEqual(run.percentile(xs, 50), 100)
        self.assertEqual(run.percentile([7.0], 99), 7.0)
        self.assertEqual(run.percentile(list(range(1, 101)), 99), 99)

    def test_better_half(self):
        xs = [9.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.better_half(xs), 2.0)  # median of 1, 2, 3
        self.assertEqual(run.better_half(xs, higher=True), 4.0)  # median of 9, 4, 3
        self.assertEqual(run.better_half([4.0, 1.0, 3.0, 2.0]), 1.5)
        self.assertEqual(run.better_half([8.0, 7.5]), 7.5)
        self.assertEqual(run.better_half([7.0]), 7.0)

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(run.spread([2.0] * 10), 0.0)


class Schema(unittest.TestCase):
    UNITS = {"wall_s": "s", "setup_s": "s", "pass_frac": "frac"}

    def test_round_trip(self):
        res = run.make_result(True, 6, 0, {"wall_s": 8.1, "setup_s": 0.38, "pass_frac": 1}, self.UNITS)
        back = json.loads(json.dumps(res))
        self.assertEqual(run.validate_result(back, self.UNITS), res)
        self.assertEqual(back["metrics"]["pass_frac"], {"value": 1.0, "unit": "frac"})

    def test_rejects_malformed(self):
        good = run.make_result(True, 2, 0, {"wall_s": 1, "setup_s": 1, "pass_frac": 1}, self.UNITS)
        for mutate in (
            lambda r: r.pop("failed"),
            lambda r: r.update(extra=1),
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=3),
            lambda r: r.update(correct="yes"),
            lambda r: r["metrics"].pop("setup_s"),
            lambda r: r["metrics"]["wall_s"].update(unit="ms"),
            lambda r: r["metrics"]["wall_s"].update(value=float("nan")),
        ):
            bad = json.loads(json.dumps(good))
            mutate(bad)
            with self.assertRaises(ValueError):
                run.validate_result(bad, self.UNITS)


class Digest(unittest.TestCase):
    def test_accepts_pinned_output(self):
        pin = pin_for(FIGURE, [FIG2_LINE])
        self.assertEqual(run.check_output(FIGURE, [FIG2_LINE], pin), [])

    def test_rejects_one_byte_perturbation(self):
        pin = pin_for(FIGURE, [FIG2_LINE])
        for i in (0, len(FIGURE) // 2, len(FIGURE) - 1):
            perturbed = bytearray(FIGURE)
            perturbed[i] ^= 0x01
            failures = run.check_output(bytes(perturbed), [FIG2_LINE], pin)
            self.assertEqual(len(failures), 1)
            self.assertIn("stdout digest", failures[0])


class Invariant(unittest.TestCase):
    def test_planned_cycles(self):
        self.assertEqual(run.parse_stats(FIG2_LINE), {"trials": 1125, "planned": 46375953})
        # simulated + saved (23986430) + pruned (75815047) ...
        self.assertEqual(run.parse_stats(FIG4_LINE)["planned"], 99801477)
        # ... equals what a warm replay of the same campaign serves.
        self.assertEqual(run.parse_stats(WARM_LINE)["planned"], 99801477)

    def test_rejects_broken_stats_line(self):
        pin = pin_for(FIGURE, [FIG4_LINE])
        broken = [
            FIG4_LINE.replace("of 23986430 window", "of 23986431 window"),  # a cycle lost
            FIG4_LINE.replace("skipping 75815047", "skipping 75815046"),
            FIG4_LINE.replace("skipping 18192267 of", "skipping 99999999 of"),  # saved > total
            FIG4_LINE.replace("2027/11184", "2027/11183"),  # wrong trial base
            FIG4_LINE.replace("(8292 statically", "(8293 statically"),
            FIG4_LINE.replace("11184 trials over", "11184 trails over"),  # unparseable
        ]
        for line in broken:
            failures = run.check_output(FIGURE, [line], pin)
            self.assertTrue(failures, line)
        self.assertTrue(run.check_output(FIGURE, [], pin), "a missing stats line must fail")

    def test_cold_pass_is_checked_against_the_warm_pin(self):
        # A cold campaign whose cutoff never fired prints no window cycles.
        cold_line = FIG2_LINE.split("; cutoff ended")[0]
        self.assertEqual(run.parse_stats(cold_line)["planned"], 0)
        pin = {"stdout_sha256": pin_for(FIGURE, [])["stdout_sha256"], "planned": [46375953]}
        self.assertTrue(run.check_output(FIGURE, [cold_line], pin))
        self.assertEqual(run.check_output(FIGURE, [cold_line], pin, cold_pass=True), [])
        self.assertEqual(run.check_output(FIGURE, [FIG2_LINE], pin, cold_pass=True), [])
        broken = FIG2_LINE.replace("of 46375953 window", "of 46375954 window")
        self.assertTrue(run.check_output(FIGURE, [broken], pin, cold_pass=True))

    def test_warm_matches_cold(self):
        cold = {"stdout_sha256": "a", "planned": [0, 63208]}
        self.assertTrue(run.warm_matches_cold({"stdout_sha256": "a", "planned": [238726, 63208]}, cold))
        self.assertFalse(run.warm_matches_cold({"stdout_sha256": "a", "planned": [1, 63207]}, cold))
        self.assertFalse(run.warm_matches_cold({"stdout_sha256": "b", "planned": [0, 63208]}, cold))


if __name__ == "__main__":
    unittest.main()
