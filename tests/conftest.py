import math
import os
from pathlib import Path

import pytest
from hypothesis import settings

import meandim as md

# CI runs with HYPOTHESIS_PROFILE=ci, so the examples a CI run draws are
# the ones a local run with the same profile draws
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)


@pytest.fixture(scope="session")
def full2():
    return md.full_shift(("0", "1"))


@pytest.fixture(scope="session")
def golden1d():
    return md.golden_mean_1d()


@pytest.fixture(scope="session")
def goldenrow(golden1d):
    return md.row_lift(golden1d)


@pytest.fixture(scope="session")
def threedot():
    return md.three_dot()


@pytest.fixture(scope="session")
def hardsquares():
    # no two horizontally or vertically adjacent ones: not linear
    return md.SftSpec(2, md.alphabet("0", "1"), (
        md.Pattern.from_dict({(0, 0): "1", (1, 0): "1"}),
        md.Pattern.from_dict({(0, 0): "1", (0, 1): "1"})))


@pytest.fixture(scope="session")
def bern_half():
    return md.MeasureSpec.bernoulli(md.alphabet("0", "1"), (0.5, 0.5))


@pytest.fixture(scope="session")
def parry(golden1d):
    return md.parry_measure(golden1d)


@pytest.fixture(scope="session")
def spec2():
    return md.MetricSpec(2.0)


@pytest.fixture(scope="session")
def act10():
    return md.ActionSpec(1, 0)


@pytest.fixture
def fixtures_dir():
    return FIXTURES
