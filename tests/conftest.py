import pytest
from hypothesis import HealthCheck, settings

from sigma2lab.languages import compile_pattern
from sigma2lab.monoids import recognize, subword_relation

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# One line per acceptance criterion at the end of the run. Tests in
# test_acceptance.py append (number, description, status) triples.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number:2d} {status:4s}  {description}")


K_PATTERN = "(ac*b+c)*"


@pytest.fixture(scope="session")
def k_dfa():
    return compile_pattern(K_PATTERN, ("a", "b", "c"))


@pytest.fixture(scope="session")
def k_rec(k_dfa):
    return recognize(k_dfa)


@pytest.fixture(scope="session")
def k_sw(k_rec):
    return subword_relation(k_rec.monoid)
