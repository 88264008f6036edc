"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the programs (as run.py does) and take under a minute.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "spans.json")


def setUpModule():
    run.build()


class SelfTime(unittest.TestCase):
    def test_children_inside_outside_and_overlapping(self):
        parent = {"start_us": 0.0, "dur_us": 100.0}
        kids = [{"start_us": 10.0, "dur_us": 30.0},   # [10, 40]
                {"start_us": 30.0, "dur_us": 30.0},   # [30, 60], overlaps the first
                {"start_us": 90.0, "dur_us": 30.0},   # [90, 120], half outside
                {"start_us": 150.0, "dur_us": 5.0}]   # wholly outside
        self.assertAlmostEqual(run.self_time(parent, kids), 100.0 - 50.0 - 10.0)
        self.assertAlmostEqual(run.self_time(parent, []), 100.0)

    def test_fixture_layers(self):
        with open(FIXTURE) as f:
            doc = json.load(f)
        # Client-observed latency of traces 1 and 2; trace 3 is incomplete.
        m = run.span_layers(doc, {1: 150.0, 2: 1100.0, 3: 10.0})
        # trace 1: gap [130, 200] minus the 50 us engine append = 20;
        # trace 2: gap [1110, 2000] minus 600 = 290.
        self.assertAlmostEqual(m["serve.exec_self_us.p50"], 155.0)
        self.assertAlmostEqual(m["serve.exec_self_us.p90"], 20.0 + 0.9 * 270.0)
        self.assertAlmostEqual(m["engine.append_us.p50"], 325.0)
        # The engine span hangs off the queue wait but runs after it, so
        # the queue wait keeps its whole duration as self time.
        self.assertAlmostEqual(m["serve.queue_wait_us.p50"], 60.0)
        self.assertAlmostEqual(m["serve.decode_us.p50"], 4.5)
        self.assertAlmostEqual(m["serve.encode_us.p50"], 20.0)
        # Server coverage is 110 and 1030 us: transport 40 and 70.
        self.assertAlmostEqual(m["transport_us.p50"], 55.0)
        self.assertAlmostEqual(m["engine.path_share.kernel"], 0.5)
        self.assertAlmostEqual(m["engine.path_share.full"], 0.5)
        self.assertAlmostEqual(m["engine.path_share.fast"], 0.0)


class Reference(unittest.TestCase):
    def test_known_answers(self):
        out = run.subprocess.run([run.PERFGEN, "figures"], check=True,
                                 stdout=run.subprocess.PIPE).stdout
        got = json.loads(out)
        self.assertIs(got["figure4"], True)
        self.assertIs(got["figure4_conflicting_top"], False)
        self.assertIs(got["input_order_chain"], False)
        # Figure 3 is a general configuration: no specialised criterion
        # applies, and the reference refuses rather than guesses.
        self.assertIsNone(got["figure3"])


class Inputs(unittest.TestCase):
    def digest(self, workload, seed):
        work = tempfile.mkdtemp(dir=".perfbench")
        try:
            return run.generate(workload, seed, work)["digest"]
        finally:
            shutil.rmtree(work)

    def test_same_seed_same_bytes(self):
        os.makedirs(".perfbench", exist_ok=True)
        for workload in run.POOL:
            with self.subTest(workload=workload):
                first = self.digest(workload, 7)
                self.assertEqual(first, self.digest(workload, 7))
                self.assertNotEqual(first, self.digest(workload, 8))


class FlippedReference(unittest.TestCase):
    """A wrong expected verdict must surface as a failure."""

    def setUp(self):
        os.makedirs(".perfbench", exist_ok=True)
        self.work = tempfile.mkdtemp(dir=".perfbench")

    def tearDown(self):
        shutil.rmtree(self.work)

    def test_serve(self):
        inputs = run.generate("serve-open-window", 3, self.work)
        stream = run.streams_of("serve-open-window", inputs)[0]
        short = {"appends": stream["appends"][:6], "expect": list(stream["expect"][:6])}
        self.assertEqual(short["expect"], [True] * 6)
        res = run.serve_run(self.work, None, [short], 0.1)
        self.assertEqual(res["failed"], 0)
        short["expect"][3] = False
        res = run.serve_run(self.work, None, [short], 0.1)
        self.assertGreater(res["failed"], 0)
        self.assertGreater(res["failed"] / res["attempted"], 0.0)

    def test_batch(self):
        inputs = run.generate("batch", 3, self.work)
        paths = [os.path.join(self.work, e["path"]) for e in inputs["files"][:4]]
        expect = [e["expect"] for e in inputs["files"][:4]]
        self.assertEqual(run.compcheck_pass(paths, expect)["failed"], 0)
        expect[1] = not expect[1]
        self.assertEqual(run.compcheck_pass(paths, expect)["failed"], 1)
        # The set-up launches check their verdict too.
        self.assertTrue(run.compcheck_first_verdict(paths[0], expect[0])[1])
        self.assertFalse(run.compcheck_first_verdict(paths[0], not expect[0])[1])


if __name__ == "__main__":
    unittest.main()
