"""Experiment orchestration: one shared context per configuration.

Every table/figure bench needs the same scaffolding — world, traffic,
providers, CDN engine, telemetry, evaluator — and at bench scale these are
worth building exactly once.  :func:`experiment_context` memoizes fully
constructed contexts per config, so a pytest-benchmark session touching all
fourteen experiments builds the world a single time.

The context builds its components *lazily* through one choke point,
:meth:`ExperimentContext.artifact`: ``ctx.world``, ``ctx.engine`` etc. are
thin properties over ``ctx.artifact("world")``...  That single accessor is
where the observability layer (:mod:`repro.obs`) wraps construction in
trace spans, and where the artifact store hydrates components from disk
instead of rebuilding them — cold compute persists them; warm runs read
them back.

The in-process memo is bounded (:data:`MAX_CACHED_CONTEXTS`): a long-lived
server sweeping many configurations evicts least-recently-used contexts
instead of leaking whole worlds.  :func:`clear_contexts` empties it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.normalize import NormalizedList, normalize_list
from repro.worldgen.config import WorldConfig

__all__ = [
    "ARTIFACT_NAMES",
    "ExperimentContext",
    "experiment_context",
    "clear_contexts",
    "BENCH_CONFIG",
    "MAX_CACHED_CONTEXTS",
]

#: The default configuration every bench runs at.
BENCH_CONFIG = WorldConfig(n_sites=20_000, n_days=28)

#: Context components resolvable through :meth:`ExperimentContext.artifact`,
#: in dependency order.
ARTIFACT_NAMES: Tuple[str, ...] = (
    "world",
    "traffic",
    "telemetry",
    "engine",
    "evaluator",
    "providers",
)


class ExperimentContext:
    """Everything an experiment needs, built lazily over one shared world.

    Args:
        config: the world configuration.
        store: an optional :class:`~repro.store.ArtifactStore`; when given,
          the world hydrates from disk and CDN metric counts and provider
          lists stream through the store.  Traffic is always computed from
          the world.

    Components are materialized on first access through
    :meth:`artifact` — the one choke point instrumentation and store
    hydration wrap — and cached for the context's lifetime.  The
    convenience properties (``world``, ``traffic``, ``telemetry``,
    ``engine``, ``evaluator``, ``providers``) all delegate to it.
    """

    def __init__(self, config: WorldConfig, store: Optional[object] = None) -> None:
        self.config = config
        self.store = store
        self._cfg_key: Optional[str] = None
        self._artifacts: Dict[str, object] = {}
        self._normalized_cache: Dict[Tuple[str, Optional[int]], NormalizedList] = {}

    # ------------------------------------------------------------------
    # The choke point.

    def artifact(self, name: str):
        """The named context component, built (and traced) on first access.

        Args:
            name: one of :data:`ARTIFACT_NAMES`.

        Raises:
            KeyError: for unknown artifact names.
        """
        value = self._artifacts.get(name)
        if value is None:
            if name not in ARTIFACT_NAMES:
                raise KeyError(
                    f"unknown context artifact {name!r}; "
                    f"choose from {', '.join(ARTIFACT_NAMES)}"
                )
            with obs.span(f"context/{name}"):
                value = self._build(name)
            self._artifacts[name] = value
        return value

    def _config_key(self) -> str:
        if self._cfg_key is None:
            from repro.store import config_key

            self._cfg_key = config_key(self.config)
        return self._cfg_key

    def _build(self, name: str):
        """Construct one component (store-backed when a store is attached).

        Imports stay local so the core pipeline has no hard dependency on
        the store package unless a store is actually used.
        """
        if name == "world":
            from repro.worldgen.world import build_world

            if self.store is None:
                return build_world(self.config)
            from repro.store import load_or_build_world

            return load_or_build_world(self.store, self._config_key(), self.config)
        if name == "traffic":
            from repro.traffic.fastpath import TrafficModel

            return TrafficModel(self.world)
        if name == "telemetry":
            from repro.telemetry.chrome import ChromeTelemetry

            return ChromeTelemetry(self.world, self.traffic)
        if name == "engine":
            from repro.cdn.metrics import CdnMetricEngine

            engine = CdnMetricEngine(self.world, self.traffic)
            if self.store is not None:
                from repro.store import attach_engine_store

                attach_engine_store(engine, self.store, self._config_key())
            return engine
        if name == "evaluator":
            from repro.core.evaluation import CloudflareEvaluator

            return CloudflareEvaluator(self.world, self.engine)
        # name == "providers" (artifact() already validated the name).
        from repro.providers.registry import build_providers

        providers = build_providers(self.world, self.traffic, self.telemetry)
        if self.store is not None:
            from repro.store import wrap_providers

            providers = wrap_providers(providers, self.store, self._config_key())
        return providers

    # ------------------------------------------------------------------
    # Component views.

    @property
    def world(self):
        """The simulated world (lazily built)."""
        return self.artifact("world")

    @property
    def traffic(self):
        """The shared per-day traffic model."""
        return self.artifact("traffic")

    @property
    def telemetry(self):
        """The Chrome telemetry vantage point."""
        return self.artifact("telemetry")

    @property
    def engine(self):
        """The Cloudflare metric engine."""
        return self.artifact("engine")

    @property
    def evaluator(self):
        """The list-vs-Cloudflare evaluator."""
        return self.artifact("evaluator")

    @property
    def providers(self):
        """All top-list providers, in registry order."""
        return self.artifact("providers")

    # ------------------------------------------------------------------
    # Normalized list cache.

    def normalized(self, provider_name: str, day: int) -> NormalizedList:
        """A provider's normalized daily list (cached)."""
        provider = self.providers[provider_name]
        key = (provider_name, day if provider.publishes_daily else None)
        cached = self._normalized_cache.get(key)
        if cached is None:
            with obs.span("normalize/list"):
                cached = normalize_list(self.world, provider.daily_list(day))
            self._normalized_cache[key] = cached
        return cached

    def normalized_monthly(self, provider_name: str) -> NormalizedList:
        """A provider's normalized monthly list (cached)."""
        provider = self.providers[provider_name]
        key = (provider_name + "#monthly", None)
        cached = self._normalized_cache.get(key)
        if cached is None:
            with obs.span("normalize/list"):
                cached = normalize_list(self.world, provider.monthly_list())
            self._normalized_cache[key] = cached
        return cached

    @property
    def magnitudes(self) -> Tuple[int, ...]:
        """Concrete bucket sizes for this universe."""
        return self.config.bucket_sizes

    @property
    def magnitude_labels(self) -> Tuple[str, ...]:
        """The paper's magnitude labels (1K/10K/100K/1M)."""
        return self.config.bucket_labels


#: Most contexts kept alive in-process; least recently used evicted first.
MAX_CACHED_CONTEXTS = 8

_CONTEXTS: "OrderedDict[Tuple[WorldConfig, Optional[str]], ExperimentContext]" = OrderedDict()


def clear_contexts() -> None:
    """Drop every memoized context (frees worlds in long-lived processes)."""
    _CONTEXTS.clear()


def experiment_context(
    *, config: Optional[WorldConfig] = None, store: Optional["object"] = None
) -> ExperimentContext:
    """Build (or fetch the cached) experiment context for a config.

    Keyword-only: :class:`~repro.worldgen.config.WorldConfig` is the sole
    configuration carrier (fold CLI arguments through
    :meth:`WorldConfig.from_args` first).

    Args:
        config: the world configuration (:data:`BENCH_CONFIG` by default).
        store: an optional :class:`~repro.store.ArtifactStore`.  When given,
          the world is hydrated from the store if present (persisted on a
          cold build), and CDN metric counts and provider lists flow
          through it lazily.
    """
    config = config if config is not None else BENCH_CONFIG
    memo_key = (config, None if store is None else str(getattr(store, "root", store)))
    cached = _CONTEXTS.get(memo_key)
    if cached is not None:
        _CONTEXTS.move_to_end(memo_key)
        return cached

    context = ExperimentContext(config, store=store)
    _CONTEXTS[memo_key] = context
    while len(_CONTEXTS) > MAX_CACHED_CONTEXTS:
        _CONTEXTS.popitem(last=False)
    return context
