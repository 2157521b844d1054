"""Logistic regression of list inclusion on website category (Section 6.4).

For each domain in the Cloudflare top-100K, the paper models the binary
outcome "included by top list L" with the domain's category as the
predictor, one category at a time against an all-others control, and
reports odds ratios with ``p < 0.01`` after a Bonferroni correction of 22
(Table 3).

The regression machinery is implemented from scratch (iteratively
reweighted least squares with Wald standard errors) and validated against
closed-form 2x2 odds ratios and scipy in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.normalize import NormalizedList
from repro.weblib.categories import CATEGORIES
from repro.worldgen.world import World

__all__ = [
    "LogisticFit",
    "logistic_regression",
    "CategoryOddsResult",
    "category_inclusion_odds",
    "least_included_rank",
]


@dataclass
class LogisticFit:
    """A fitted logistic regression.

    Attributes:
        coef: coefficients, intercept first.
        std_err: Wald standard errors per coefficient.
        z_values: Wald z statistics.
        p_values: two-sided p-values.
        converged: whether IRLS converged.
        iterations: IRLS iterations used.
    """

    coef: np.ndarray
    std_err: np.ndarray
    z_values: np.ndarray
    p_values: np.ndarray
    converged: bool
    iterations: int

    def odds_ratio(self, index: int = 1) -> float:
        """``exp(coef[index])`` — the odds ratio of predictor ``index``."""
        return float(np.exp(self.coef[index]))


def logistic_regression(
    X: np.ndarray,
    y: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
    ridge: float = 1e-9,
) -> LogisticFit:
    """Fit ``P(y=1) = sigmoid(b0 + X @ b)`` by IRLS.

    Args:
        X: ``[n, k]`` design matrix (no intercept column; one is added).
        y: binary outcomes.
        max_iter: IRLS iteration cap.
        tol: convergence threshold on the max coefficient update.
        ridge: tiny L2 stabilizer for separable data.

    Raises:
        ValueError: on shape mismatch or non-binary outcomes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be [n, k] aligned with y")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("y must be binary")

    design = np.column_stack([np.ones(len(y)), X])
    k = design.shape[1]
    beta = np.zeros(k)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        eta = design @ beta
        # Clip to keep weights finite under quasi-separation.
        eta = np.clip(eta, -30.0, 30.0)
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1.0 - mu)
        w = np.maximum(w, 1e-12)
        # Newton step: solve (X'WX + ridge I) d = X'(y - mu).
        hessian = design.T @ (design * w[:, None]) + ridge * np.eye(k)
        gradient = design.T @ (y - mu)
        step = np.linalg.solve(hessian, gradient)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            converged = True
            break

    eta = np.clip(design @ beta, -30.0, 30.0)
    mu = 1.0 / (1.0 + np.exp(-eta))
    w = np.maximum(mu * (1.0 - mu), 1e-12)
    covariance = np.linalg.inv(design.T @ (design * w[:, None]) + ridge * np.eye(k))
    std_err = np.sqrt(np.diag(covariance))
    z_values = beta / std_err
    # Imported here: ``repro serve`` never fits a regression and skips the
    # import at startup.
    from scipy.special import ndtr

    p_values = 2.0 * ndtr(-np.abs(z_values))
    return LogisticFit(
        coef=beta,
        std_err=std_err,
        z_values=z_values,
        p_values=p_values,
        converged=converged,
        iterations=iteration,
    )


@dataclass(frozen=True)
class CategoryOddsResult:
    """Table 3 cell: one (list, category) inclusion odds ratio.

    Attributes:
        category: category name.
        odds_ratio: odds of inclusion for the category vs all others.
        p_value: Wald p-value of the category coefficient.
        significant: whether ``p < alpha / bonferroni`` held.
        n_category: number of universe domains in the category.
        n_included: number of those the list included.
    """

    category: str
    odds_ratio: float
    p_value: float
    significant: bool
    n_category: int
    n_included: int


def least_included_rank(
    normalized: NormalizedList, universe_sites: np.ndarray
) -> Optional[int]:
    """The paper's D_least: the worst list rank among universe domains the
    list includes (None when the list includes none of them)."""
    member = np.isin(normalized.sites, universe_sites)
    if not member.any():
        return None
    return int(normalized.ranks[member].max())


def category_inclusion_odds(
    world: World,
    universe_sites: np.ndarray,
    normalized: NormalizedList,
    alpha: float = 0.01,
    bonferroni: Optional[int] = None,
    categories: Optional[Sequence[str]] = None,
) -> Dict[str, CategoryOddsResult]:
    """Table 3: per-category inclusion odds ratios for one list.

    Args:
        world: the simulated world (category labels come from its ground
          truth, standing in for the Cloudflare categorization API).
        universe_sites: the Cloudflare-side universe (e.g. the CF top-100K
          under all HTTP requests).
        normalized: the evaluated list, normalized to domains.
        alpha: significance level before correction (paper: 0.01).
        bonferroni: correction factor (defaults to the category count).
        categories: category names to test (defaults to all).
    """
    names = list(categories) if categories is not None else [c.name for c in CATEGORIES]
    bonferroni = bonferroni if bonferroni is not None else len(names)
    threshold = alpha / bonferroni

    included = np.isin(universe_sites, normalized.sites).astype(np.float64)
    cat_of = world.sites.category[universe_sites]

    out: Dict[str, CategoryOddsResult] = {}
    cat_index = {c.name: i for i, c in enumerate(CATEGORIES)}
    for name in names:
        indicator = (cat_of == cat_index[name]).astype(np.float64)
        n_category = int(indicator.sum())
        n_included = int((indicator * included).sum())
        if n_category == 0 or n_category == len(universe_sites):
            out[name] = CategoryOddsResult(
                category=name,
                odds_ratio=float("nan"),
                p_value=float("nan"),
                significant=False,
                n_category=n_category,
                n_included=n_included,
            )
            continue
        fit = logistic_regression(indicator[:, None], included)
        out[name] = CategoryOddsResult(
            category=name,
            odds_ratio=fit.odds_ratio(1),
            p_value=float(fit.p_values[1]),
            significant=bool(fit.p_values[1] < threshold),
            n_category=n_category,
            n_included=n_included,
        )
    return out
