"""Shared fixtures and the acceptance-line reporter.

Tests that need deterministic "random" draws use splitmix64 from the
package itself so failures reproduce exactly across machines.
"""

import contextlib
import signal
from fractions import Fraction

import pytest

from spectralconv.catalog import mixed_word_spec, scale4_spec
from spectralconv.convolution import ConstantExponents, ConvolutionSpec
from spectralconv.hadamard import AdmissiblePair
from spectralconv.words import PeriodicTail, SymbolicWord


@pytest.fixture
def jp():
    return scale4_spec()


@pytest.fixture
def mixed17():
    return mixed_word_spec()


def constant_word(letter):
    return SymbolicWord((), PeriodicTail((letter,)))


def single_pair_spec(scale, digits, spectrum=None):
    pair = AdmissiblePair(scale, tuple(digits),
                          tuple(spectrum) if spectrum is not None else None)
    return ConvolutionSpec((pair,), constant_word(1), ConstantExponents(1))


def frac_grid(denominator, lo=0, hi=1):
    lo = Fraction(lo)
    hi = Fraction(hi)
    out = []
    k = lo * denominator
    assert k.denominator == 1
    k = k.numerator
    while Fraction(k, denominator) < hi:
        out.append(Fraction(k, denominator))
        k += 1
    return out


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary

_ACCEPTANCE_LINES = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    number = int(name.split("_")[2])
    if hasattr(report, "wasxfail"):
        status = "XFAIL" if report.skipped else "XPASS"
    else:
        status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[report.outcome]
    _ACCEPTANCE_LINES.append((number, status, name))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, name in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line("[criterion %2d] %-5s %s" % (number, status, name))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the test if the block runs longer than this."""
    def expire(signum, frame):
        raise TimeoutError("case took longer than %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
