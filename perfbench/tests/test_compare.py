"""``run.py compare`` verdicts on hand-made reports."""

from __future__ import annotations

import json

import pytest

import run

BENCHMARK = {
    "end_to_end": [
        {"name": "pages_per_s", "unit": "pages/s", "better": "higher", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    ]
}


def pages(*values: float) -> dict:
    return run.describe(list(values), "higher")


def rss(*values: float) -> dict:
    return run.describe(list(values), "lower")


def report(pages_per_s: dict, peak_rss_mb: dict, error_rate: float = 0.0) -> dict:
    return {
        "workloads": {
            "w": {
                "error_rate": error_rate,
                "end_to_end": {"pages_per_s": pages_per_s, "peak_rss_mb": peak_rss_mb},
            }
        }
    }


def verdicts(tmp_path, base: dict, cand: dict) -> dict:
    paths = []
    for name, payload in (("a.json", base), ("b.json", cand)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return {row["metric"]: row["verdict"] for row in run.compare(*paths, BENCHMARK)}


STEADY = pages(100.0, 100.5, 101.0, 99.5, 100.0)
RSS = rss(50.0, 50.1, 50.0, 49.9, 50.0)


@pytest.mark.parametrize(
    ("cand", "expected"),
    [
        (pages(95.0, 95.5, 96.0, 94.5, 95.0), "within bound"),
        (pages(85.0, 85.5, 86.0, 84.5, 85.0), "worse"),
        (pages(115.0, 115.5, 116.0, 114.5, 115.0), "better"),
        (pages(60.0, 80.0, 100.0, 120.0, 140.0), "unresolved"),
        # spread wider than the bound, but every run beats / trails every base run
        (pages(120.0, 150.0, 180.0, 210.0, 240.0), "better"),
        (pages(40.0, 55.0, 70.0, 85.0, 98.0), "worse"),
        # the median dropped 20%; one fast run does not hide it
        (pages(80.0, 80.0, 80.0, 80.0, 80.0, 80.0, 101.0), "worse"),
    ],
)
def test_pages_verdicts(tmp_path, cand, expected):
    assert verdicts(tmp_path, report(STEADY, RSS), report(cand, RSS))["pages_per_s"] == expected


def test_lower_is_better_metrics_flip_direction(tmp_path):
    base = report(STEADY, RSS)
    bigger = report(STEADY, rss(56.0, 56.1, 56.0, 55.9, 56.0))
    smaller = report(STEADY, rss(44.0, 44.1, 44.0, 43.9, 44.0))
    assert verdicts(tmp_path, base, bigger)["peak_rss_mb"] == "worse"
    assert verdicts(tmp_path, base, smaller)["peak_rss_mb"] == "better"


def test_error_rate_has_no_tolerance(tmp_path):
    result = verdicts(tmp_path, report(STEADY, RSS), report(STEADY, RSS, error_rate=0.2))
    assert result == {
        "pages_per_s": "within bound",
        "peak_rss_mb": "within bound",
        "error_rate": "worse",
    }


def test_compare_command_exits_nonzero_on_a_regression(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(report(STEADY, RSS)))
    (tmp_path / "b.json").write_text(json.dumps(report(pages(50.0, 51.0, 50.5), RSS)))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run.main(["compare", a, a]) == 0
    assert run.main(["compare", a, b]) == 1
    assert "worse" in capsys.readouterr().out
