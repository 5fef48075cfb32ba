"""A time limit for collecting each module and for running each test, so that
code that never returns fails the suite instead of stalling it."""

import contextlib
import signal

import pytest

TIME_LIMIT_S = 60  # the slowest test takes about 5 s, the slowest import 3 s


class TimeLimitExceeded(BaseException):
    """A test or a module's collection ran past TIME_LIMIT_S.  Not an
    Exception, so that hypothesis stops at once instead of shrinking an input
    that never returns."""


@contextlib.contextmanager
def _time_limit(session, what):
    """Ends the body with TimeLimitExceeded after TIME_LIMIT_S of real time,
    and stops the run after the test at hand, as `-x` would: code that never
    returns would stall every later test that reaches it, a minute each.
    Where the platform has no SIGALRM the body runs without a limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        if frame is not None and frame.f_lineno is None:
            # pytest cannot print a traceback entry without a line number,
            # which an instruction such as a loop's jump back may lack
            signal.setitimer(signal.ITIMER_REAL, 0.001)
            return
        session.shouldstop = f"{what} ran longer than {TIME_LIMIT_S} s"
        raise TimeLimitExceeded(session.shouldstop)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def time_limit(request):
    """Most tests find roots, spectra or fusion tables in-process, where a
    loop that never ends (the prime search of poly._lifted_roots, say) would
    hang the suite."""
    with _time_limit(request.session, request.node.nodeid):
        yield


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    """Some modules decompose algebras or solve spectra at import, for
    parameters and hypothesis examples."""
    with _time_limit(collector.session, f"collecting {collector.nodeid or 'the session'}"):
        return (yield)
