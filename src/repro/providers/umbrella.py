"""The Cisco Umbrella 1 Million simulator.

Umbrella ranks the most *queried DNS names* — not websites — by the number
of unique client IPs looking each name up on Cisco's resolvers, relative to
total query volume.  Mechanism details that matter for the paper's findings
and that this simulator reproduces:

* **FQDN granularity**: ``www.example.com``, ``api.example.com`` and
  ``example.com`` are separate entries; bare TLDs (``com`` is #1) and
  OS/CDN infrastructure names crowd the head (Table 2's 71-78% PSL
  deviation).
* **Enterprise, US-centric client base**: Umbrella is sold to businesses;
  weekday traffic dominates (Figure 3's weekly periodicity) and category
  blocking hides adult/gambling/abuse domains (Table 3).
* **DNS caching**: a client's repeat visits within a TTL produce no
  repeat queries, so query counts compress real popularity differences —
  the paper's explanation for Umbrella's good set coverage but poor rank
  accuracy.
* **Alphabetical tie-breaking**: equal scores are ordered
  lexicographically, producing the long alphabetized runs prior work
  observed.
"""

from __future__ import annotations

import numpy as np

from repro.providers.base import Granularity, RankedList, TopListProvider
from repro.traffic.calendar import TrafficCalendar
from repro.traffic.fastpath import TrafficModel
from repro.worldgen.nametable import NameKind
from repro.worldgen.world import World
from repro.worldgen.zipf import sample_counts

__all__ = ["UmbrellaProvider"]

#: Fraction of Umbrella's client base behind enterprise policy.
_ENTERPRISE_FRACTION = 0.8

#: Owned FQDN rows per block in ``_unique_clients_per_fqdn``: the
#: ``[rows, countries]`` temporaries of one block stay cache-sized
#: instead of spanning every owned row.
_UNIQUE_BLOCK_ROWS = 4096

# A site's repeat lookups within an org are answered from the shared
# forwarder cache, so Umbrella effectively counts *organizations*, not
# devices — the head of the distribution saturates (every org queries
# google.com every day) and rank information above the saturation point is
# destroyed.  This models "caching, TTLs, and other DNS complexities
# prevent capturing fine grained popularity" (Section 5.2); the org size
# lives in WorldConfig.umbrella_org_size so the ablation bench can sweep it.


class UmbrellaProvider(TopListProvider):
    """DNS unique-client ranking over FQDNs."""

    name = "umbrella"
    granularity = Granularity.FQDN

    def __init__(self, world: World, traffic: TrafficModel) -> None:
        super().__init__(world, traffic)
        self._calendar = TrafficCalendar(world.config)
        names = world.names
        self._fqdn_rows = names.rows_of_kind(NameKind.FQDN)
        self._fqdn_sites = names.site[self._fqdn_rows]
        # Ties break alphabetically: rows pre-ordered by name (stable, so
        # equal names keep row order) and ranked by a stable sort on score.
        fqdn_names = np.array([names.strings[int(r)] for r in self._fqdn_rows])
        self._alpha_order = np.argsort(fqdn_names, kind="stable")
        self._alpha_rows = self._fqdn_rows[self._alpha_order]
        self._fqdn_share = names.share[self._fqdn_rows]
        self._infra_weight = names.dns_weight[self._fqdn_rows]
        # Umbrella's per-country client base.
        self._clients_by_country = (
            world.config.umbrella_clients * world.clients.umbrella_share
        )
        # Enterprise browsing has its own persistent site mix (SaaS tools,
        # B2B services) beyond what category blocking captures.
        self._taste = self._panel_composition_bias(0.4, common=0.5)
        # TTL-policy heterogeneity: a site's DNS record TTL decides how
        # many resolver queries a visit generates, so query counts
        # conflate popularity with TTL policy.  The factor is bounded
        # (x1/5..x5), which reorders neighbours aggressively — wrecking
        # rank accuracy — while rarely jumping the decade-wide set
        # boundaries, the paper's good-coverage/bad-ranks signature.
        ttl_rng = world.day_rng(self.name, 99_993)
        self._ttl_factor = np.exp(
            ttl_rng.uniform(-np.log(5.0), np.log(5.0), world.n_sites)
        )
        # Day-invariant inputs of _unique_clients_per_fqdn, over the FQDN
        # rows a site owns (infrastructure rows draw no site sessions).
        self._owned = self._fqdn_sites >= 0
        self._owned_sites = self._fqdn_sites[self._owned]
        self._owned_share = self._fqdn_share[self._owned, None]
        self._unblocked = 1.0 - world.sites.enterprise_block[self._owned_sites]
        self._owned_taste = self._taste[self._owned_sites]
        clients = self._clients_by_country[None, :]
        self._org_size = max(1.0, world.config.umbrella_org_size)
        self._orgs = clients * _ENTERPRISE_FRACTION / self._org_size
        self._home_clients = clients * (1.0 - _ENTERPRISE_FRACTION)
        # Infrastructure names: queried by nearly every client.
        self._infra = self._clients_by_country.sum() * np.minimum(
            1.0, self._infra_weight * 30.0
        )

    def _site_query_sessions(self, day: int) -> np.ndarray:
        """Expected per-site, per-country visit sessions originating from
        Umbrella's client base (``[n_sites, n_countries]``), before policy
        and caching effects."""
        world = self._world
        tensors = self._traffic.day(day)
        country_clients = world.clients.country_clients()
        with np.errstate(divide="ignore", invalid="ignore"):
            base_ratio = np.where(
                country_clients > 0, self._clients_by_country / country_clients, 0.0
            )
        return tensors.sessions * base_ratio[None, :] * self._ttl_factor[:, None]

    def _unique_clients_per_fqdn(self, day: int) -> np.ndarray:
        """Expected unique client IPs querying each FQDN row on ``day``."""
        sessions = self._site_query_sessions(day)  # [n_sites, n_countries]
        clients = self._clients_by_country[None, :]

        # Per-tier activity.  The enterprise tier carries the panel's
        # taste bias and category blocking and browses on the workweek;
        # the (small) home tier is an unbiased sample of the population.
        # On weekends the enterprise tier collapses, so the observed mix
        # shifts toward the accurate home view — Umbrella's weekly
        # periodicity and weekend accuracy gain in Figure 3.
        ent_factor = (
            self._calendar.enterprise_desktop_factor(day)
            * self._unblocked
            * self._owned_taste
        )
        home_factor = self._calendar.home_desktop_factor(day)

        # Rows no site owns have no sessions, so their unique-client
        # count is exactly 0.0 and only owned rows are computed, block by
        # block; each row sees the same element operations and the same
        # row sum whatever the block size.
        owned_unique = np.empty(len(self._owned_sites))
        for lo in range(0, len(self._owned_sites), _UNIQUE_BLOCK_ROWS):
            hi = lo + _UNIQUE_BLOCK_ROWS
            # Per-FQDN sessions: a visit to the site queries the FQDNs its
            # pages touch; service FQDNs are queried proportionally to share.
            fqdn_sessions = np.take(sessions, self._owned_sites[lo:hi], axis=0)
            fqdn_sessions *= self._owned_share[lo:hi]

            # Caching suppression, two tiers.  Enterprise devices sit behind
            # shared forwarder caches: Umbrella sees one client per *org* per
            # day per name, and an org queries a name if any member does
            # (org-level occupancy — saturates quickly, destroying rank
            # information at the head: the paper's "caching, TTLs, and other
            # DNS complexities" argument).  Home clients count individually.
            # Both chains run in place, in the order of
            # orgs * -expm1(-rate * org_size * ent_factor) and
            # home_clients * -expm1(-rate * home_factor).
            with np.errstate(divide="ignore", invalid="ignore"):
                neg_rate = np.where(clients > 0, fqdn_sessions / clients, 0.0)
            np.negative(neg_rate, out=neg_rate)
            org_unique = neg_rate * self._org_size
            org_unique *= ent_factor[lo:hi, None]
            home_unique = neg_rate
            home_unique *= home_factor
            for chain, scale in ((org_unique, self._orgs), (home_unique, self._home_clients)):
                np.expm1(chain, out=chain)
                np.negative(chain, out=chain)
                chain *= scale
            org_unique += home_unique
            owned_unique[lo:hi] = org_unique.sum(axis=1)
        unique = np.zeros(len(self._fqdn_rows))
        unique[self._owned] = owned_unique
        return unique + self._infra

    def _build_daily(self, day: int) -> RankedList:
        """The Umbrella list for ``day``: FQDNs by unique querying IPs,
        integer-quantized, ties broken alphabetically."""
        expected = self._unique_clients_per_fqdn(day)
        rng = self._world.day_rng("umbrella", day)
        # Resolver-fleet sampling and anycast routing shift which slice of
        # the client base each datacenter counts day to day; this perturbs
        # counts (and thus ranks) much more than set membership.
        expected = expected * rng.lognormal(0.0, 0.6, size=len(expected))
        counts = sample_counts(rng, expected)
        # Rank-resolution loss: between caching and normalization, DNS
        # counts only support coarse popularity bands.  Scores collapse to
        # geometric buckets, creating the long alphabetically-sorted tie
        # runs prior work observed in the published list.
        quantized = np.where(
            counts > 0, np.power(2.2, np.floor(np.log(counts + 1.0) / np.log(2.2))), 0.0
        )
        return self._assemble(
            quantized[self._alpha_order], self._alpha_rows, day=day, min_score=0.0
        )
