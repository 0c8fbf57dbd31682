"""Self-tests of the benchmark harness (stdlib unittest).

    python3 bench/selftest.py

They check that the generators convert and round-trip at small sizes, that
the templated scripts reproduce the shipped ones, that a failing step is
counted and not timed, that the printed metric names match BENCHMARK.json,
and that the tracer reproduces the program's deterministic counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from viewshift.names import alpha_eq_project  # noqa: E402
from viewshift.parse import parse_project  # noqa: E402
from viewshift.script import parse_script, run_script  # noqa: E402


def _commands(text: str) -> list[str]:
    return [str(step) for step in parse_script(text).steps]


class BenchTest(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.ROOT, ".bench_work"))

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(run.ROOT, ".bench_work"))

    def _bench(self, wl) -> run.Bench:
        return run.Bench(wl, run.Tally())

    def test_small_generators_convert_and_round_trip(self):
        for wl in (
            workloads.wide(os.path.join(self.root, "wide"), 3, n_cons=2, n_funs=2),
            workloads.padded(os.path.join(self.root, "padded"), 3, pad=2),
        ):
            bench = self._bench(wl)
            for checked in (False, True):
                _, results, ok = bench.timed_conversion(checked)
                self.assertTrue(ok, bench.tally.problems)
            if wl.name == "padded":  # the forward result, converted back, is the origin
                back, log = run_script(results[0].out, bench.scripts["reverse"])
                self.assertTrue(log.ok)
                self.assertTrue(alpha_eq_project(back, parse_project(wl.projects["pfun"])))
            self.assertEqual(bench.tally.failed, 0)

    def test_padding_is_canonical_and_seeded(self):
        import random

        a = workloads.padding_modules(random.Random("padded:5"), 4)
        b = workloads.padding_modules(random.Random("padded:5"), 4)
        c = workloads.padding_modules(random.Random("padded:6"), 4)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        for name, text in a.items():
            self.assertEqual(workloads.canonical(text, f"{name}.mfn"), text)

    def test_templates_reproduce_the_shipped_scripts(self):
        fun = workloads.Fun
        pfun_shape = (
            ("Const", "Add"),
            [fun("eval", "EvalMod", "fold1", False, "r2"), fun("toString", "ToStringMod", "fold2", True, "r1")],
        )
        shipped = workloads.extract_fixture("forward-script", self.root, "forward.vs")
        self.assertEqual(_commands(workloads.forward_script(*pfun_shape)), _commands(shipped))
        mult_shape = (("Const", "Add", "Mult"), pfun_shape[1])
        shipped = workloads.extract_fixture("scenario-mult", self.root, "reverse-mult.vs")
        self.assertEqual(_commands(workloads.reverse_script(*mult_shape)), _commands(shipped))

    def test_failed_step_is_counted_not_timed(self):
        wl = workloads.paper(os.path.join(self.root, "paper"), 1)
        wl.jobs = wl.jobs[:1]
        wl.jobs[0].text += "remove-def nosuch EvalMod\n"
        bench = self._bench(wl)
        with contextlib.redirect_stdout(io.StringIO()):
            metrics, _ = run.measure(bench, 0)
        self.assertGreater(bench.tally.failed, 0)
        for name in ("convert_s", "convert_checked_s", "step_p50_ms", "step_tail_ms", "cli_apply_s"):
            self.assertNotIn(name, metrics)
        self.assertIn("setup_s", metrics)  # set-up reads the inputs only

    def test_printed_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = run.main(["--workload", "paper", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
            self.assertEqual(status, 0)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in spec[key]})

    def test_paper_forward_counts(self):
        """The traced forward run (pfun -> pdata) reproduces the program's
        deterministic counts, the same on two runs. A change that moves
        these counts on purpose updates them here."""
        wl = workloads.paper(os.path.join(self.root, "paper"), 1)
        wl.jobs = wl.jobs[:1]
        bench = self._bench(wl)
        tracer = Tracer()
        tracer.install()
        try:
            seen = []
            for _ in range(2):
                counts = {}
                for checked in (False, True):
                    inputs = bench.load()
                    with tracer.capture():
                        results, _ = bench.convert(inputs, checked)
                    self.assertTrue(bench.gate(results), bench.tally.problems)
                    counts[checked] = run._job_counts(tracer)[0]
                seen.append(counts)
        finally:
            tracer.uninstall()
        self.assertEqual(seen[0], seen[1])
        unchecked, checked = seen[0][False], seen[0][True]
        self.assertEqual((unchecked["build_symbol_table"], checked["build_symbol_table"]), (209, 617))
        self.assertEqual(unchecked["resolve_project"], 103)
        self.assertEqual(unchecked["minimize_qualifiers"], 51)
        self.assertEqual(unchecked["evaluators"], 0)
        self.assertEqual(
            (checked["evaluators"], checked["reductions"], checked["forcings"]), (408, 19938, 8094)
        )

    def test_tracer_uninstall_restores_the_program(self):
        from viewshift import evaluator, refactorings, resolver, rewrite, script

        before = (
            resolver.build_symbol_table, rewrite.build_symbol_table, refactorings._finish,
            evaluator.Evaluator.__init__, dict(script.COMMANDS),
        )
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(rewrite.build_symbol_table, before[1])
        tracer.uninstall()
        after = (
            resolver.build_symbol_table, rewrite.build_symbol_table, refactorings._finish,
            evaluator.Evaluator.__init__, dict(script.COMMANDS),
        )
        self.assertEqual(before, after)

    def test_missing_program_exits_nonzero(self):
        import subprocess

        bare = os.path.join(self.root, "bare")
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
