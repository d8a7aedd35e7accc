"""Self-tests of the benchmark itself (not of zpoly).

    python3 perfbench/selftest.py        # from the root of a checkout, ~1 min

* traced and untraced jobs give identical answer checksums;
* two seeds give different inputs but identical checksums;
* a wrong polynomial or an exception injected into the call wrapper is
  counted as a failed item instead of ending the run.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import zpoly  # noqa: E402
import workloads  # noqa: E402
from spans import Direct, Tracer  # noqa: E402
from worker import run_job  # noqa: E402


class Faulty(Direct):
    """Returns P + 1 from kl_defining and raises in bases enumeration."""

    def call(self, name, fn, *args, **kwargs):
        if name == "matroid.enumerate_flats.bases":
            raise RuntimeError("injected")
        out = fn(*args, **kwargs)
        if name == "klz.kl_defining":
            return zpoly.IntPolynomial([out.coeffs[0] + 1] + list(out.coeffs[1:]))
        return out


class BenchmarkSelfTest(unittest.TestCase):

    def test_seeds_and_tracing_keep_checksums(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                one = workload.make_inputs(1)
                # sweep only orders three families, so some seeds coincide
                two = next((inputs for inputs in map(workload.make_inputs, range(2, 20))
                            if workloads.inputs_digest(inputs) != workloads.inputs_digest(one)),
                           None)
                self.assertIsNotNone(two, "the seed does not change the inputs")
                plain = run_job(workload, one, Direct())
                traced = run_job(workload, one, Tracer("selftest"))
                other = run_job(workload, two, Direct())
                for result in (plain, traced, other):
                    self.assertEqual(result["failed"], 0, result["failures"])
                self.assertEqual(plain["checksum"], traced["checksum"])
                self.assertEqual(plain["checksum"], other["checksum"])
                self.assertTrue(traced["spans"])

    def test_injected_faults_are_counted(self):
        workload = workloads.WORKLOADS["lattice-oracle"]
        inputs = workload.make_inputs(3)
        result = run_job(workload, inputs, Faulty())
        expected = {"typeb5.P.defining", "qvec3_3.P.defining"} | {
            f"k5_trees.{item}" for item in workloads.LATTICE_ITEMS}
        self.assertEqual(result["attempted"], 3 * len(workloads.LATTICE_ITEMS))
        self.assertEqual(result["failed"], len(expected))
        self.assertLessEqual(set(result["failures"]), expected)


if __name__ == "__main__":
    unittest.main()
