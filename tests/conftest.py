import signal

import pytest
from hypothesis import HealthCheck, settings

from lacunary_asym import PrecisionContext

# mpmath timings vary wildly across machines; property content matters,
# wall clock does not
settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext()


# Seconds a test that uses the ``time_limit`` fixture may run.
TIME_LIMIT_S = 10


@pytest.fixture
def time_limit():
    """Fail the test after TIME_LIMIT_S seconds instead of letting a hang
    stall the whole suite.  Uses SIGALRM, so POSIX and the main thread only;
    the failure is raised inside the running code wherever it loops."""

    def expire(signum, frame):
        pytest.fail(f"still running after {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
