"""Similarity measures between ranked lists.

The paper compares lists two ways (Section 4.3):

* **Jaccard index** — ``|A ∩ B| / |A ∪ B|`` over the lists as unordered
  sets; the paper's primary measure, since researchers mostly use top lists
  as sets.
* **Spearman's rank correlation** — computed over the *intersection* of the
  two lists, correlating each element's rank position within each list.

Spearman is implemented from first principles (average ranks for ties,
Pearson correlation of the rank vectors, t-approximation p-value from
``scipy.special.stdtr``) and validated against ``scipy.stats.spearmanr``
in the test suite.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "jaccard_index",
    "overlap",
    "spearman",
    "SpearmanResult",
    "rank_correlation_of_lists",
    "pairwise_jaccard",
    "pairwise_spearman",
    "average_ranks",
    "interpret_spearman",
]


def _as_set(items: Iterable[int]) -> set:
    """``items`` as a set of plain Python values (numpy scalars hash and
    compare far slower than the ints ``.tolist()`` yields)."""
    if isinstance(items, np.ndarray):
        items = items.tolist()
    return set(items)


#: Largest id :func:`overlap` indexes a membership mask with; larger ids
#: (or any non-integer input) take the set path.
_MASK_IDS = 1 << 22


def _id_array(items: Iterable[int]) -> Optional[np.ndarray]:
    """``items`` when it is a 1-D array of small non-negative integer ids."""
    if not isinstance(items, np.ndarray) or items.ndim != 1 or items.dtype.kind not in "iu":
        return None
    if len(items) and not 0 <= items.min() <= items.max() < _MASK_IDS:
        return None
    return items


def overlap(a: Iterable[int], b: Iterable[int]) -> Tuple[int, int]:
    """``(|A ∩ B|, |A ∪ B|)`` of two collections treated as sets.

    Integer id arrays (site indices) count through boolean membership
    masks; anything else goes through Python sets.
    """
    ids_a, ids_b = _id_array(a), _id_array(b)
    if ids_a is None or ids_b is None:
        set_a, set_b = _as_set(a), _as_set(b)
        return len(set_a & set_b), len(set_a | set_b)
    size = max(int(ids_a.max(initial=0)), int(ids_b.max(initial=0))) + 1
    in_a = np.zeros(size, dtype=bool)
    in_b = np.zeros(size, dtype=bool)
    in_a[ids_a] = True
    in_b[ids_b] = True
    return int(np.count_nonzero(in_a & in_b)), int(np.count_nonzero(in_a | in_b))


def jaccard_index(a: Iterable[int], b: Iterable[int]) -> float:
    """Jaccard index of two collections treated as sets.

    Returns 1.0 for two empty collections (identical sets), matching the
    set-theoretic convention.
    """
    shared, union = overlap(a, b)
    if union == 0:
        return 1.0
    return shared / union


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional (average) ranks of ``values``, 1-based; ties share the
    mean of the positions they occupy.

    >>> average_ranks(np.array([10.0, 20.0, 20.0, 5.0])).tolist()
    [2.0, 3.5, 3.5, 1.0]
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    # Tie groups are runs of equal sorted values: [first, last] positions.
    breaks = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    first = np.concatenate(([0], breaks))
    last = np.concatenate((breaks, [len(values)])) - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


class SpearmanResult(Tuple[float, float]):
    """A ``(rho, pvalue)`` pair with named accessors."""

    __slots__ = ()

    def __new__(cls, rho: float, pvalue: float) -> "SpearmanResult":
        return super().__new__(cls, (rho, pvalue))

    @property
    def rho(self) -> float:
        """The rank correlation coefficient in [-1, 1]."""
        return self[0]

    @property
    def pvalue(self) -> float:
        """Two-sided p-value under the t-approximation."""
        return self[1]


def spearman(x: Sequence[float], y: Sequence[float]) -> SpearmanResult:
    """Spearman rank correlation with tie handling and a t-test p-value.

    Args:
        x, y: paired observations; length >= 2.

    Returns:
        :class:`SpearmanResult`.  When either input is constant the
        correlation is undefined; returns ``(nan, nan)`` like scipy.

    Raises:
        ValueError: on length mismatch or fewer than two pairs.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.shape != y_arr.shape:
        raise ValueError("x and y must have the same length")
    n = len(x_arr)
    if n < 2:
        raise ValueError("need at least two observations")

    rx = average_ranks(x_arr)
    ry = average_ranks(y_arr)
    rx_c = rx - rx.mean()
    ry_c = ry - ry.mean()
    denom = math.sqrt(float(rx_c @ rx_c) * float(ry_c @ ry_c))
    if denom == 0.0:
        return SpearmanResult(float("nan"), float("nan"))
    rho = float(rx_c @ ry_c) / denom
    rho = max(-1.0, min(1.0, rho))

    if n == 2 or abs(rho) == 1.0:
        pvalue = 0.0 if abs(rho) == 1.0 and n > 2 else 1.0
    else:
        # Imported here: ``repro serve`` never takes a p-value and skips
        # the import at startup.
        from scipy.special import stdtr

        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        pvalue = float(2.0 * stdtr(n - 2, -abs(t)))
    return SpearmanResult(rho, pvalue)


def rank_correlation_of_lists(
    list_a: Sequence[int], list_b: Sequence[int]
) -> SpearmanResult:
    """Spearman correlation of two ranked lists over their intersection.

    Each list is an ordered sequence of unique ids, best first.  Elements
    present in both lists are correlated by their 1-based positions; this
    is the paper's method for comparing a top list against a Cloudflare
    metric ranking.

    Returns ``(nan, nan)`` when the intersection has fewer than two
    elements.  An id repeated in ``list_a`` takes its last position there.
    """
    a = np.asarray(list_a)
    b = np.asarray(list_b)
    order_a = np.argsort(a, kind="stable")
    sorted_a = a[order_a]
    # The last sorted slot <= each id of b; stable order makes that the
    # id's last position in list_a when it is present at all.
    slot = np.searchsorted(sorted_a, b, side="right") - 1
    shared = slot >= 0
    shared[shared] = sorted_a[slot[shared]] == b[shared]
    positions_b = np.flatnonzero(shared)
    if len(positions_b) < 2:
        return SpearmanResult(float("nan"), float("nan"))
    return spearman(order_a[slot[shared]], positions_b)


def pairwise_jaccard(lists: Dict[str, Sequence[int]]) -> Dict[Tuple[str, str], float]:
    """Jaccard index for every unordered pair of named lists.

    Returns a symmetric mapping including both orderings plus the diagonal.
    """
    names = list(lists)
    sets = {name: _as_set(lists[name]) for name in names}
    out: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(names):
        out[(a, a)] = 1.0
        for b in names[i + 1 :]:
            union = len(sets[a] | sets[b])
            value = (len(sets[a] & sets[b]) / union) if union else 1.0
            out[(a, b)] = value
            out[(b, a)] = value
    return out


def pairwise_spearman(lists: Dict[str, Sequence[int]]) -> Dict[Tuple[str, str], float]:
    """Intersection Spearman rho for every pair of named ranked lists."""
    names = list(lists)
    out: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(names):
        out[(a, a)] = 1.0
        for b in names[i + 1 :]:
            rho = rank_correlation_of_lists(lists[a], lists[b]).rho
            out[(a, b)] = rho
            out[(b, a)] = rho
    return out


#: Interpretation bands for correlation coefficients (Section 4.4).
_INTERPRETATION_BANDS = (
    (0.10, "negligible"),
    (0.40, "weak"),
    (0.70, "moderate"),
    (0.90, "strong"),
    (float("inf"), "very strong"),
)


def interpret_spearman(rho: float) -> str:
    """The paper's qualitative band for a correlation magnitude.

    >>> interpret_spearman(0.45)
    'moderate'
    """
    if math.isnan(rho):
        return "undefined"
    magnitude = abs(rho)
    for upper, label in _INTERPRETATION_BANDS:
        if magnitude < upper:
            return label
    raise AssertionError("unreachable")
