import random

import pytest

from instances import seeded_suite
from zinbiel.fields import QQ, PrimeField

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for nodeid in sorted(_ACCEPTANCE):
        short = nodeid.split("::")[-1].replace("test_criterion_", "criterion ")
        short = short.replace("_", " ")
        outcome = _ACCEPTANCE[nodeid].upper()
        terminalreporter.write_line(f"  {outcome:6s} {short}")


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(params=["Q", "F5", "F7"])
def field(request):
    return {"Q": QQ, "F5": PrimeField(5), "F7": PrimeField(7)}[request.param]


@pytest.fixture(scope="session")
def suite():
    return seeded_suite()


@pytest.fixture(scope="session")
def small_suite(suite):
    return [f for f in suite if max(f.source.dim, f.target.dim) <= 2]
