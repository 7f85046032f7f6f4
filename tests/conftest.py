import io

import pytest
from mpmath import mp

from vanetmarket import generate_synthetic
from vanetmarket.trajectories import _Fleet, _read_fleet


@pytest.fixture(autouse=True)
def _restore_mpmath_precision():
    """Keep a test's change of the global mpmath precision from reaching later tests."""
    dps = mp.dps
    yield
    mp.dps = dps


@pytest.fixture(scope="session")
def fleet():
    """Medium synthetic fleet shared across tests; regenerating is cheap but wasteful."""
    return generate_synthetic(40, 90, seed=11)


@pytest.fixture(scope="session")
def small_fleet():
    return generate_synthetic(8, 45, seed=3)


def _read_back(trajs):
    """The fleet the trace reader reads from `trajs` written as a trace file."""
    text = "vehicle_id,timestamp,lat,lon\n" + "".join(
        f"{traj.vehicle_id},{s.t!r},{s.lat!r},{s.lon!r}\n" for traj in trajs for s in traj.samples
    )
    return _read_fleet(io.BytesIO(text.encode()))


@pytest.fixture(scope="session")
def input_forms():
    """The forms a public trace function takes its input in, made from a list
    of trajectories: the list itself, its `_Fleet`, and the fleet read back
    from it written as a trace file, as the CLI reads one."""
    def forms(trajs):
        return {"trajectories": trajs, "fleet": _Fleet.of(trajs), "trace": _read_back(trajs)}

    return forms
