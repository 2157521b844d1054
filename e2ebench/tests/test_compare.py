"""``compare`` verdicts and the claim rule on synthetic results."""

import json

from e2ebench import compare
from e2ebench.spec import METRICS, Metric

WALL = Metric("wall_s", "s", "lower", 0.10)
OPS = Metric("ops_per_s", "op/s", "higher", 0.10)


def test_verdicts_on_win_loss_within_and_unresolved():
    parent = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(WALL, parent, [8.0, 8.1, 7.9, 8.0])["verdict"] == "better"
    assert compare.verdict(WALL, parent, [12.0, 12.1, 11.9, 12.0])["verdict"] == "worse"
    assert compare.verdict(WALL, parent, [10.3, 10.2, 10.4, 10.3])["verdict"] == "within bound"
    noisy = [7.0, 10.0, 14.0, 12.0]
    assert compare.verdict(WALL, noisy, [10.5, 10.4, 10.6, 10.5])["verdict"] == "unresolved"


def test_direction_follows_better():
    parent = [100.0, 101.0, 99.0]
    assert compare.verdict(OPS, parent, [130.0, 131.0, 129.0])["verdict"] == "better"
    assert compare.verdict(OPS, parent, [70.0, 71.0, 69.0])["verdict"] == "worse"


def test_wide_spread_is_better_only_when_every_change_run_wins():
    parent = [10.0, 14.0, 12.0, 16.0]
    assert compare.verdict(WALL, parent, [5.0, 6.0, 5.5, 9.9])["verdict"] == "better"
    assert compare.verdict(WALL, parent, [5.0, 6.0, 5.5, 11.0])["verdict"] == "unresolved"


def test_claim_rule_needs_nine_of_ten_wins_and_a_gap_beyond_parent_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]
    faster = [value - 1.0 for value in parent]
    assert compare.claim(WALL, parent, faster)["met"]
    eight_wins = faster[:8] + [11.0, 11.0]
    assert not compare.claim(WALL, parent, eight_wins)["met"]
    barely = [value - 0.05 for value in parent]  # wins every pair, gap < IQR
    result = compare.claim(WALL, parent, barely)
    assert result["wins"] == 10 and not result["met"]


def _doc(walls):
    return {"workloads": {"pipeline_cold": {"end_to_end": {"wall_s": {
        "median": sorted(walls)[len(walls) // 2], "samples": walls}}}}}


def test_cli_exit_code_and_pairs(tmp_path, capsys):
    slower = 10.0 * (1 + 2 * METRICS["wall_s"].bound)
    paths = []
    for name, walls in (("p", [10.0, 10.1, 9.9]), ("c", [slower, slower + 0.1, slower - 0.1])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_doc(walls)))
        paths.append(str(path))
    assert compare.main(paths) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(paths[::-1]) == 0
    assert compare.main(paths[:1]) == 2

    pairs = []
    for n in range(10):
        for walls in ([10.0 + n * 0.01], [9.0 + n * 0.01]):
            path = tmp_path / f"{n}-{walls[0]}.json"
            path.write_text(json.dumps(_doc(walls)))
            pairs.append(str(path))
    assert compare.main(pairs) == 0
    assert "claim met: 10/10 wins" in capsys.readouterr().out
