import numpy as np
import pytest

import axiswirl as ax
from axiswirl.norms import y_series


@pytest.fixture(scope="session")
def ref_profile():
    return ax.build_profile(ax.reference_k())


@pytest.fixture(scope="session")
def zero_profile():
    return ax.build_profile(ax.zero_forcing())


@pytest.fixture(scope="session")
def big_profile():
    """Amplitude-100 bump: the log-saturated regime spans the ladder."""
    return ax.build_profile(ax.bump_forcing(100.0))


@pytest.fixture(scope="session")
def fam1(ref_profile):
    return ax.SolutionFamily(profile=ref_profile, T=0.5, part=1)


@pytest.fixture(scope="session")
def fam2(ref_profile):
    return ax.SolutionFamily(profile=ref_profile, T=0.5, part=2)


@pytest.fixture(scope="session")
def fam1_zero(zero_profile):
    return ax.SolutionFamily(profile=zero_profile, T=0.5, part=1)


@pytest.fixture(scope="session")
def fam2_zero(zero_profile):
    return ax.SolutionFamily(profile=zero_profile, T=0.5, part=2)


@pytest.fixture(scope="session")
def fam1_big(big_profile):
    return ax.SolutionFamily(profile=big_profile, T=0.5, part=1)


@pytest.fixture(scope="session")
def fam2_big(big_profile):
    return ax.SolutionFamily(profile=big_profile, T=0.5, part=2)


@pytest.fixture(scope="session")
def y_deep(fam2_big):
    """The five Y series of the amplitude-100 bump on the J = 28 ladder, by
    name: one ``y_series`` call for every test that reads a Y series."""
    return {s.quantity.removeprefix("L1_"): s
            for s in y_series(fam2_big, ax.TimeLadder(0.5, 28))}


@pytest.fixture(scope="session")
def grid128():
    return 128


@pytest.fixture(scope="session")
def ladder12():
    return ax.TimeLadder(0.5, 12)


@pytest.fixture(scope="session")
def ladder20():
    return ax.TimeLadder(0.5, 20)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
