import signal

import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp, mpf

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


def _b_series(n, x, nu, extra=128):
    """b_nu by its defining series (-n i^nu / nu!) sum_{k>=1} k^(nu-1) (-x)^k,
    0 < x < 1, summed at the working precision plus ``extra`` bits (its
    alternating terms cancel ~nu log2((1+x)/(1-x)) bits) and stopped once the
    terms fall by the ratio ((k+1)/k)^(nu-1) x < 1 and their geometric tail is
    below 2^-prec of the sum.  Returned at the working precision."""
    prec = mp.prec
    with mp.workprec(prec + extra):
        partial, k = mpf(0), 1
        while True:
            term = mpf(k) ** (nu - 1) * (-x) ** k
            partial += term
            ratio = (mpf(k + 1) / k) ** (nu - 1) * x
            if ratio < 1 and abs(term) * ratio / (1 - ratio) < 2**-prec * abs(partial):
                break
            k += 1
        b = mp.j**nu * -n * partial / mp.factorial(nu)
    return +b


@pytest.fixture(scope="session")
def b_series():
    """The series reference for saddle_data's closed-form b (_b_series)."""
    return _b_series


def _dual_theta(z, a, prec):
    """theta_3(z, e^-a) for 0 < a <= pi by Jacobi's dual sum sqrt(pi/a) sum_k
    e^{-(z - k pi)^2/a} over the fixed window |k - k0| <= 40, k0 = nint(z/pi),
    at ``prec`` bits: a term outside is below e^{-39.5^2 pi} < 2^-7000 of the
    largest.  Returned at the working precision."""
    with mp.workprec(prec):
        z, a = mpf(z), mpf(a)
        k0 = int(mp.nint(z / mp.pi))
        total = mp.fsum(mp.exp(-((z - k * mp.pi) ** 2) / a) for k in range(k0 - 40, k0 + 41))
        theta = mp.sqrt(mp.pi / a) * total
    return +theta


@pytest.fixture(scope="session")
def dual_theta():
    """An independent reference for theta_3 near q = 1 (_dual_theta)."""
    return _dual_theta


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
