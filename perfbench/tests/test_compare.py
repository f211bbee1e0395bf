import json

import pytest

from perfbench import compare

PROV = {"git_sha": "a", "cpus": 2, "python": "3.11.7",
        "implementation": "cpython", "platform": "Linux-x",
        "calibration_s": 0.040}


def _report(wall, **prov):
    return {"workload": "construct",
            "provenance": dict(PROV, **prov),
            "metrics": {"wall_s": wall, "ok_rate": 1.0}}


def test_refuses_mismatched_provenance():
    base = [_report(1.0)]
    for field, value in (("cpus", 4), ("python", "3.12.0"),
                         ("platform", "Darwin"), ("calibration_s", 0.05)):
        with pytest.raises(compare.ProvenanceMismatch):
            compare.check_provenance(base, [_report(1.0, **{field: value})])
    found = compare.check_provenance(base, [_report(1.0, cpus=4)],
                                     allow=True)
    assert set(found) == {"cpus"}


def test_commit_and_small_speed_drift_still_compare():
    base = [_report(1.0)]
    new = [_report(1.0, git_sha="b", calibration_s=0.042)]
    assert compare.check_provenance(base, new) == {}


def test_regression_is_judged_against_the_bound():
    rows = {r["metric"]: r for r in compare.compare(
        [_report(1.0), _report(1.2)], [_report(1.5)]
    )}
    # base median 1.1; 1.5 / 1.1 - 1 = 0.36 > wall_s bound
    assert rows["wall_s"]["regressed"]
    rows = {r["metric"]: r for r in compare.compare(
        [_report(1.0)], [_report(1.01)]
    )}
    assert not rows["wall_s"]["regressed"]
    assert not rows["ok_rate"]["regressed"]


def test_main_exit_codes(tmp_path):
    paths = {}
    for name, report in (("a", _report(1.0)), ("b", _report(1.0, cpus=8))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(report))
    assert compare.main(["--base", str(paths["a"]),
                         "--new", str(paths["b"])]) == 2
    assert compare.main(["--base", str(paths["a"]), "--new",
                         str(paths["b"]),
                         "--allow-provenance-mismatch"]) == 0

