"""Each correctness check of the benchmark rejects a perturbed solution.

Run from the repository root (about half a minute):

    python3 -m pytest perfbench/test_checks.py -q
"""

import pytest

import workloads as wl


@pytest.fixture(scope="module", params=list(wl.WORKLOADS))
def solved(request):
    case = wl.setup(wl.WORKLOADS[request.param])
    uT, ends = wl.solve(case)
    return case, uT, ends


def _verdicts(case, uT, ends):
    _, checks = wl.check(case, uT, ends)
    return {c.name: c.passed for c in checks}


def _limit(solved, name):
    """The limit the check ``name`` applies to the unperturbed solution."""
    _, checks = wl.check(*solved)
    return next(c.limit for c in checks if c.name == name)


def test_unperturbed_solution_passes(solved):
    assert _verdicts(*solved) == {"l1": True, "mass": True}


def test_l1_check_rejects_slope_perturbation(solved):
    case, uT, ends = solved
    bad = uT.copy()
    # the xi mode carries no mass; its mean |xi| is 1/4, so this adds
    # 2.5 limits of domain-averaged L1 error
    bad.coeffs[:, 1] += 10.0 * _limit(solved, "l1")
    assert _verdicts(case, bad, ends) == {"l1": False, "mass": True}


def test_mass_check_rejects_constant_shift(solved):
    case, uT, ends = solved
    bad = uT.copy()
    # ten tolerances of mass spread evenly: far below the L1 limits
    bad.coeffs[:, 0] += 10.0 * _limit(solved, "mass") / case.problem.volume
    assert _verdicts(case, bad, ends) == {"l1": True, "mass": False}


def test_swirl_check_rejects_the_reference_itself():
    case = wl.setup(wl.WORKLOADS["swirl-qc"])
    ref, meta = wl.load_reference()
    # a solution that matches the reference to rounding is not an
    # independent 40^2 result: its error falls below the Table 6 window
    assert _verdicts(case, ref, [meta["T"]])["l1"] is False
