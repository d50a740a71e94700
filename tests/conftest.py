import re

CRITERIA = {
    1: "ring example: first-order rows match printed coefficients within 1%",
    2: "ring example: feasibility residuals all below 5e-3",
    3: "identity G = (lI-W)^{-1}V to 1e-8 on 100 random systems in under 10 s",
    4: "staircase coprimeness certificate: true on random systems, false on fixture",
    5: "factorization round trip to 1e-6 with Riccati residual below 1e-10",
    6: "K_d pole structure: p integrators (continuous) / stable (discrete)",
    7: "ring closed loop Hurwitz; free response matches expm to 1e-8 and "
    "decays within the slowest-mode bound",
    8: "network realization function: zero diagonal, pattern match, identity",
    9: "structured solver reaches tol 1e-6 on the exact ring base in under 60 s",
}

_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" and not (report.when == "setup" and report.failed):
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    idx = int(m.group(1))
    if report.failed:
        _results[idx] = "FAIL"
    elif report.skipped:
        _results.setdefault(idx, "SKIP")
    else:
        _results.setdefault(idx, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for idx in sorted(CRITERIA):
        status = _results.get(idx, "NOT RUN")
        terminalreporter.write_line(f"[criterion {idx}] {status} - {CRITERIA[idx]}")
