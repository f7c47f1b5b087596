"""The library entry point: ``read_scenario`` and ``run_scenario`` hold the
run policy of ``gm``.  Every input error is one ``ScenarioError``, with the
message ``gm`` prints, and numpy raises on overflow, invalid operations and
division by zero inside a run, however the caller set it, and as the caller
set it after."""

import glob
import os

import numpy as np
import pytest

from groupoid_measures import read_scenario, run_scenario
from groupoid_measures.cli import bundled_scenarios, load_scenario, main
from groupoid_measures.expressions import ScenarioError

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(DATA, "*.json"))),
                         ids=os.path.basename)
def test_each_reproducer_raises_the_error_that_gm_prints(capsys, path):
    with pytest.raises(ScenarioError) as exc:
        run_scenario(read_scenario(load_scenario(path)))
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("setting", ["ignore", "warn", "raise"])
def test_a_library_run_keeps_its_policy_and_the_callers_error_state(setting):
    scenarios = [read_scenario(load_scenario(p)) for p in bundled_scenarios()]
    rows = [run_scenario(s) for s in scenarios]
    overflow = read_scenario(load_scenario(os.path.join(DATA, "weinstein_rho_overflow.json")))
    with np.errstate(over=setting, invalid=setting, divide=setting):
        before = np.geterr()
        assert [run_scenario(s) for s in scenarios] == rows
        assert np.geterr() == before
        with pytest.raises(ScenarioError, match="check 'weinstein_two_ways': overflow"):
            run_scenario(overflow)
        assert np.geterr() == before
    assert all(row.passed for r in rows for row in r)
