"""An independent Dowdall reference for checking Tranco lists.

Tranco (Le Pochat et al., NDSS '19) scores a site by the sum of
``1/rank`` over every (component list, day) in a trailing window and
ranks sites by that score.  This module implements the definition a
second time, from published name rows, with plain dicts and lists.  It
imports nothing from :mod:`repro.providers` or :mod:`repro.ranking`, so
a list that matches it was not checked against itself.

The definition, including the parts float arithmetic makes binding:

* A published list folds to ``{site: 1/rank}``: each row maps to its site
  through the name table's row-to-site column, the first occurrence of a
  site gives its rank, and infrastructure rows (site < 0) score nothing.
* The window for day ``d`` is days ``max(0, d - window + 1) .. d``.
* A complete window sums ``1/rank`` into one accumulator, components
  outer and days ascending inner.
* A window with a hole sums each component on its own, scales a
  component with ``present`` of ``window_days`` days by
  ``window_days / present``, and adds the components in order.  A
  component with no days contributes nothing.
* Sites order by score descending, ties by site id, truncated to the
  list length.  A Tranco list names each site by its registrable-domain
  row, and those rows lead the name table in site order, so the ranked
  rows are the site ids.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

__all__ = ["OracleDay", "dowdall_oracle", "matches"]


class OracleDay(NamedTuple):
    """One day's reference list: ranked rows and ``{site: score}``."""

    rows: List[int]
    scores: Dict[int, float]


def _fold(rows: Sequence[int], site_of_row: Sequence[int]) -> Dict[int, float]:
    """``{site: 1/rank}`` for one published list."""
    shares: Dict[int, float] = {}
    for position, row in enumerate(rows, start=1):
        site = site_of_row[row]
        if site >= 0 and site not in shares:
            shares[site] = 1.0 / position
    return shares


def _add(total: Dict[int, float], shares: Dict[int, float]) -> None:
    for site, share in shares.items():
        total[site] = total.get(site, 0.0) + share


def _window_scores(cells: List[List[Optional[Dict[int, float]]]]) -> Dict[int, float]:
    total: Dict[int, float] = {}
    if all(shares is not None for days in cells for shares in days):
        for days in cells:
            for shares in days:
                _add(total, shares)
        return total
    for days in cells:
        present = [shares for shares in days if shares is not None]
        if not present:
            continue
        partial: Dict[int, float] = {}
        for shares in present:
            _add(partial, shares)
        scale = len(days) / len(present)
        for site, score in partial.items():
            total[site] = total.get(site, 0.0) + score * scale
    return total


def dowdall_oracle(
    published: Sequence[Sequence[Optional[Sequence[int]]]],
    site_of_row: Sequence[int],
    window: int,
    list_length: int,
) -> List[OracleDay]:
    """Every day's Tranco list, from the component lists as published.

    Args:
        published: per component, per day from day 0, the published name
          rows, or ``None`` for a hole.
        site_of_row: the site id of each name-table row (< 0 for
          infrastructure names).
        window: trailing window length in days.
        list_length: entries in a published list.

    Each published list is folded once; each day then sums the folded
    lists inside its window.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not published:
        raise ValueError("need at least one component")
    n_days = len(published[0])
    if any(len(days) != n_days for days in published):
        raise ValueError("every component must publish the same days")
    folded = [
        [None if rows is None else _fold(rows, site_of_row) for rows in days]
        for days in published
    ]
    out: List[OracleDay] = []
    for day in range(n_days):
        first = max(0, day - window + 1)
        scores = _window_scores([days[first:day + 1] for days in folded])
        ranked = sorted(scores, key=lambda site: (-scores[site], site))
        out.append(OracleDay(ranked[:list_length], scores))
    return out


def matches(expected: OracleDay, rows: List[int],
            scores: List[float]) -> Dict[str, bool]:
    """Compare a list and its per-site scores with the reference.

    Args:
        expected: the reference day.
        rows: the list's ranked name rows.
        scores: the list's score for every site, indexed by site id.

    Scores compare as exact doubles: every site with a nonzero score must
    hold the reference's value, and no other site may score.  Nonzero
    finite doubles are equal exactly when their bits are.
    """
    nonzero = {site: score for site, score in enumerate(scores) if score != 0.0}
    return {
        "ranks_identical": list(rows) == expected.rows,
        "scores_identical": nonzero == expected.scores,
    }
