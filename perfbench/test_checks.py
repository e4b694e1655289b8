"""Tests of the benchmark's own checks: each must reject a deliberately wrong value.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LOG2 = math.log(2.0)


def test_pressure_shifted_by_1e_6_is_rejected():
    assert checks.within("P", LOG2, LOG2, 1e-10)[0]
    assert not checks.within("P", LOG2 + 1e-6, LOG2, 1e-10)[0]
    assert not checks.within("Ulam P", -1e-6, 0.0, workloads.ULAM_PRESSURE_TOL)[0]


def test_response_off_its_fd_twin_is_rejected():
    assert checks.fd_agrees("d", 0.37861, 0.37862, 1e-3)[0]
    # the Ulam response error measured at N = 512
    assert not checks.fd_agrees("d", 0.37054361, 0.37861020, 1e-3)[0]
    assert not checks.fd_agrees("d", 15.0 * (1 + 2e-3), 15.0, 1e-3)[0]


def test_ladder_must_fall_strictly_and_stay_positive():
    assert checks.strictly_decreasing_positive("P", [0.0152, 0.0108, 0.0076])[0]
    assert not checks.strictly_decreasing_positive("P", [0.0152, 0.0152, 0.0076])[0]
    assert not checks.strictly_decreasing_positive("P", [0.0152, 0.0108, -1e-6])[0]


def test_gap_at_one_is_rejected():
    assert checks.gap_below_one("tau", 0.98, False)[0]
    assert not checks.gap_below_one("tau", 1.0, True)[0]


def test_triangulation_rejects_a_shifted_route():
    assert checks.triangulation("pd", 0.69706, 0.69700, 0.69704)[0]
    assert not checks.triangulation("pd", 0.69706 + 0.03, 0.69700, 0.69704)[0]
    assert not checks.triangulation("pd", 0.69706, 0.69700, 0.69704 + 0.015)[0]


def test_monte_carlo_rate_outside_its_band_is_rejected():
    ci = 3.7e-4
    band = checks.MC_CI_WIDENING * ci
    assert checks.mc_within_ci("n=30", -0.111717 + 0.5 * band, -0.111717, ci)[0]
    assert not checks.mc_within_ci("n=30", -0.111717 + 1.01 * band, -0.111717, ci)[0]
    assert not checks.mc_within_ci("n=30", -0.111717, -0.111717, float("nan"))[0]
    # the n = 60 fault as measured: -0.0446 +- 1.2e-4 against r_60 = -0.0853
    assert not checks.mc_within_ci("n=60", -0.0446, -0.0853, 1.2e-4)[0]


def test_dyadic_quadrature_twin_at_n15():
    assert checks.dyadic_deviation_rate(15, 0.25, 0.45) == pytest.approx(-0.1692365, abs=1e-5)


def test_equilibrium_mass_check():
    assert workloads._mass_one("mu", np.full(4, 0.25))[0]
    assert not workloads._mass_one("mu", np.array([0.25, 0.25, 0.25, 0.25 + 1e-6]))[0]
    assert not workloads._mass_one("mu", np.array([0.5, 0.5 + 1e-3, -1e-3]))[0]


def test_changed_artifact_byte_is_rejected(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "report.json").write_text('{"pressure": 0.6931471805599453}\n')
    (b / "report.json").write_text('{"pressure": 0.6931471805599453}\n')
    assert workloads._same_artifacts(str(a), str(b))[0]
    (b / "report.json").write_text('{"pressure": 0.6931471805599454}\n')
    assert not workloads._same_artifacts(str(a), str(b))[0]


def _workload(ops):
    return workloads.Workload("fake", ops, warmup=lambda: None)


def test_known_fault_counts_as_failed_and_other_faults_as_incorrect():
    ok = workloads.Op("ok", lambda rs: 1.0, lambda r, rs: [checks.within("ok", r, 1.0, 0.0)])
    fault = workloads.Op("fault", lambda rs: 2.0,
                         lambda r, rs: [checks.within("fault", r, 1.0, 0.0)], known_fault=True)
    outcome = run.Outcome()
    run.run_round(_workload([ok, fault]), outcome)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (2, 1, [])

    wrong = workloads.Op("wrong", lambda rs: 2.0,
                         lambda r, rs: [checks.within("wrong", r, 1.0, 0.0)])
    outcome = run.Outcome()
    run.run_round(_workload([ok, wrong]), outcome)
    assert (outcome.attempted, outcome.failed) == (2, 0)
    assert len(outcome.problems) == 1


def test_raising_operation_is_failed_and_incorrect():
    def boom(rs):
        raise ValueError("boom")
    outcome = run.Outcome()
    run.run_round(_workload([workloads.Op("boom", boom, lambda r, rs: [])]), outcome)
    assert outcome.failed == 1
    assert "boom" in outcome.problems[0]


def test_import_time_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       200 |        300 |   scipy._lib",
        "import time:      1000 |       1500 | scipy",
        "import time:       400 |     500000 |   circthermo.stats",
        "import time:       100 |     600000 | circthermo",
    ])
    assert run.import_times(stderr) == pytest.approx((0.6, 0.0012))
