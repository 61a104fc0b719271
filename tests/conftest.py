import json


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit the acceptance verdict lines after the test summary and
    write them, with their values and thresholds, to the pytest cache."""
    try:
        from test_acceptance import VERDICT_RECORDS, VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
    cache = getattr(config, "cache", None)   # None without the cacheprovider
    if VERDICT_RECORDS and cache is not None:
        path = cache.mkdir("carlesonlab") / "verdicts.json"
        records = sorted(VERDICT_RECORDS, key=lambda r: r["criterion"])
        path.write_text(json.dumps(records, indent=1) + "\n")
        terminalreporter.write_line(f"verdict records: {path}")
