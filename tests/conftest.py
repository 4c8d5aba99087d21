"""Suite-wide per-test wall limit.

Each phase of a test (setup, call, teardown) runs under a SIGALRM deadline,
so a livelocked driver or a max flow that stops making progress fails its
test instead of hanging the run. A test may set its own limit with
``@pytest.mark.time_limit(seconds)``.

The failure is raised afresh from the hook with the interrupted stack in its
message: the traceback of an exception raised by a signal handler can hold
entries without a line number, which pytest cannot render.
"""

import signal

import pytest

DEFAULT_LIMIT_S = 120  # the slowest test takes about 6 s


class TimeLimitExceeded(Exception):
    pass


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "time_limit(seconds): wall limit for each phase of this test")


def _where(frame, depth: int = 10) -> str:
    """The innermost ``depth`` frames, outermost first."""
    lines = []
    while frame is not None and len(lines) < depth:
        code = frame.f_code
        lines.append(f"  {code.co_filename}:{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return "\n".join(reversed(lines))


def _limited(item):
    if not hasattr(signal, "SIGALRM"):  # not on Windows
        return (yield)
    marker = item.get_closest_marker("time_limit")
    limit = marker.args[0] if marker else DEFAULT_LIMIT_S

    def expire(signum, frame):
        raise TimeLimitExceeded(
            f"ran past its {limit} s limit; stopped at\n{_where(frame)}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        return (yield)
    except TimeLimitExceeded as exc:
        raise TimeLimitExceeded(str(exc)) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _limited(item))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _limited(item))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    return (yield from _limited(item))
