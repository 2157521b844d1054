"""The name table: every name any vantage point can rank.

Top lists rank three kinds of objects (Section 4.2): registrable domains,
FQDNs (Umbrella), and web origins (CrUX).  The name table materializes the
full naming structure of the synthetic world once, so that providers can
publish lists of name ids and the normalization pipeline can map ids back to
sites without re-parsing strings every simulated day.

The table also carries pure-infrastructure DNS names (bare TLDs, NTP pools,
OS telemetry endpoints) with ``site == -1``: they dominate the head of
DNS-derived lists like Umbrella's — ``.com`` is ranked #1 — and inflate its
PSL-deviation statistics in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.worldgen.config import WorldConfig
from repro.worldgen.names import SUBDOMAIN_POOL, WEB_FACING_SUBDOMAINS
from repro.worldgen.sites import SiteUniverse

__all__ = ["NameKind", "NameTable", "build_name_table", "INFRA_DNS_NAMES"]


class NameKind:
    """Integer tags for name-table rows."""

    DOMAIN = 0
    FQDN = 1
    ORIGIN = 2


#: Pure-DNS infrastructure names and their relative query weight (fraction
#: of *all* DNS queries, roughly).  These are never websites.
INFRA_DNS_NAMES: Tuple[Tuple[str, float], ...] = (
    ("com", 0.060),
    ("net", 0.018),
    ("org", 0.008),
    ("arpa", 0.006),
    ("in-addr.arpa", 0.005),
    ("root-servers.net", 0.004),
    ("pool.ntp.org", 0.0035),
    ("time.windows.com", 0.003),
    ("ctldl.windowsupdate.com", 0.0028),
    ("settings-win.data.microsoft.com", 0.0026),
    ("mtalk.google.com", 0.0025),
    ("connectivity-check.ubuntu.com", 0.0012),
    ("detectportal.firefox.com", 0.0012),
    ("ocsp.digicert.com", 0.0022),
    ("ocsp.pki.goog", 0.0018),
    ("safebrowsing.googleapis.com", 0.0020),
    ("update.googleapis.com", 0.0018),
    ("api.push.apple.com", 0.0016),
    ("gateway.icloud.com", 0.0012),
    ("cdn.jsdelivr.net", 0.0010),
    ("fonts.gstatic.com", 0.0015),
    ("dns.msftncsi.com", 0.0011),
)


_CHAFF_SERVICES = (
    "push", "telemetry", "api", "sync", "cdn", "events", "metrics", "ota",
    "ads", "beacon", "config", "edge", "ingest", "mqtt", "ws", "stun",
)
_CHAFF_VENDORS = (
    "appvendor", "mobilesdk", "smarttv", "iothub", "adnet", "cloudsvc",
    "devicecorp", "gamesdk", "castbox", "wearables", "routerco", "carplay",
)
_CHAFF_TLDS = ("com", "net", "io", "cloud", "dev")


def _generate_dns_chaff(
    config: WorldConfig, rng: np.random.Generator
) -> List[Tuple[str, float]]:
    """Non-website DNS names with standalone query weights.

    Phones, TVs, SDKs, and routers resolve service endpoints constantly;
    these names rank highly on DNS-derived lists but host no website.
    Weights are log-uniform so the chaff interleaves throughout the
    Umbrella ranking rather than clustering.
    """
    count = int(round(config.n_sites * config.dns_chaff_fraction))
    if count <= 0:
        return []
    out: List[Tuple[str, float]] = []
    weights = np.exp(
        rng.uniform(np.log(2e-7), np.log(2.5e-5), size=count)
    )
    for i in range(count):
        service = _CHAFF_SERVICES[int(rng.integers(len(_CHAFF_SERVICES)))]
        vendor = _CHAFF_VENDORS[int(rng.integers(len(_CHAFF_VENDORS)))]
        tld = _CHAFF_TLDS[int(rng.integers(len(_CHAFF_TLDS)))]
        shard = int(rng.integers(0, 64))
        out.append((f"{service}-{shard}.{vendor}{i}.{tld}", float(weights[i])))
    return out


@dataclass
class NameTable:
    """All rankable names, as parallel arrays.

    Attributes:
        strings: the name's textual form (domain, FQDN, or serialized
          origin) per row.
        site: owning site index, or -1 for infrastructure names.
        kind: one of :class:`NameKind`.
        share: for FQDN/origin rows, the fraction of the owning site's
          traffic attributable to this name; 1.0 for domain rows.
        dns_weight: for infrastructure rows, absolute DNS query weight;
          0 elsewhere.
    """

    strings: List[str]
    site: np.ndarray
    kind: np.ndarray
    share: np.ndarray
    dns_weight: np.ndarray
    #: Table 2's per-row PSL deviation flags, one array per PSL (see
    #: :mod:`repro.core.normalize`): memoized with the table, never
    #: serialized or compared.
    psl_deviation: Dict[object, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.strings)

    def rows_of_kind(self, kind: int) -> np.ndarray:
        """Row indices of a given :class:`NameKind`, in table order."""
        return np.flatnonzero(self.kind == kind)

    def domain_row_of_site(self, site: int) -> int:
        """The domain row for a site (domain rows lead the table in order)."""
        return site

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """All columns as numpy arrays (strings as a unicode array)."""
        return {
            "strings": np.asarray(self.strings, dtype=np.str_),
            "site": self.site,
            "kind": self.kind,
            "share": self.share,
            "dns_weight": self.dns_weight,
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "NameTable":
        """Rebuild a table from :meth:`to_arrays` output."""
        return cls(
            strings=[str(s) for s in arrays["strings"]],
            site=np.asarray(arrays["site"]),
            kind=np.asarray(arrays["kind"]),
            share=np.asarray(arrays["share"]),
            dns_weight=np.asarray(arrays["dns_weight"]),
        )

    def lookup(self, text: str) -> Optional[int]:
        """Row index of an exact name string, or None.

        A site's apex appears both as its domain row and as an FQDN row;
        the earliest row (the domain row, given the layout invariant) wins.
        """
        if not hasattr(self, "_index"):
            index: Dict[str, int] = {}
            for i, s in enumerate(self.strings):
                index.setdefault(s, i)
            self._index = index
        return self._index.get(text)


def build_name_table(
    config: WorldConfig, sites: SiteUniverse, rng: np.random.Generator
) -> NameTable:
    """Construct the name table for a site universe.

    Layout invariant: rows ``0..n_sites-1`` are the registrable-domain rows
    in site order; FQDN rows follow; origin rows follow; infrastructure
    rows come last.
    """
    n = sites.n_sites
    strings: List[str] = list(sites.names)
    site_ids: List[int] = list(range(n))
    kinds: List[int] = [NameKind.DOMAIN] * n
    shares: List[float] = [1.0] * n
    dns_weights: List[float] = [0.0] * n

    pool = [label for label in SUBDOMAIN_POOL if label != "www"]

    # Draw per-site FQDN structure.
    www_primary = rng.random(n) < config.www_primary_prob
    extra_counts = np.minimum(rng.poisson(config.mean_extra_fqdns, size=n), 6)
    primary_share = 0.55 + 0.40 * rng.beta(5.0, 2.0, size=n)
    http_origin = rng.random(n) < config.http_origin_prob
    http_share = rng.uniform(0.05, 0.30, size=n)

    fqdn_rows: List[Tuple[int, str, float]] = []  # (site, host, share)
    origin_rows: List[Tuple[int, str, float]] = []

    for i in range(n):
        domain = sites.names[i]
        p_share = float(primary_share[i])
        primary_host = f"www.{domain}" if www_primary[i] else domain
        k = int(extra_counts[i])
        labels = (
            list(rng.choice(pool, size=min(k, len(pool)), replace=False)) if k else []
        )
        # The non-primary apex (or www) also sees a sliver of traffic.
        alt_host = domain if www_primary[i] else f"www.{domain}"
        remainder = 1.0 - p_share
        if labels:
            cuts = rng.dirichlet(np.ones(len(labels) + 1)) * remainder
            alt_share = float(cuts[0])
            label_shares = cuts[1:]
        else:
            alt_share = remainder
            label_shares = np.empty(0)

        fqdn_rows.append((i, primary_host, p_share))
        fqdn_rows.append((i, alt_host, alt_share))
        for label, s in zip(labels, label_shares):
            fqdn_rows.append((i, f"{label}.{domain}", float(s)))

        # Origins: web-facing hosts only.
        primary_origin_share = p_share + alt_share  # apex+www serve one site
        if http_origin[i]:
            split = float(http_share[i])
            origin_rows.append((i, f"https://{primary_host}", primary_origin_share * (1 - split)))
            origin_rows.append((i, f"http://{primary_host}", primary_origin_share * split))
        else:
            origin_rows.append((i, f"https://{primary_host}", primary_origin_share))
        for label, s in zip(labels, label_shares):
            if label in WEB_FACING_SUBDOMAINS:
                origin_rows.append((i, f"https://{label}.{domain}", float(s)))

    for site_idx, host, share in fqdn_rows:
        strings.append(host)
        site_ids.append(site_idx)
        kinds.append(NameKind.FQDN)
        shares.append(share)
        dns_weights.append(0.0)

    for site_idx, origin, share in origin_rows:
        strings.append(origin)
        site_ids.append(site_idx)
        kinds.append(NameKind.ORIGIN)
        shares.append(share)
        dns_weights.append(0.0)

    for name, weight in INFRA_DNS_NAMES:
        strings.append(name)
        site_ids.append(-1)
        kinds.append(NameKind.FQDN)
        shares.append(0.0)
        dns_weights.append(weight)

    for name, weight in _generate_dns_chaff(config, rng):
        strings.append(name)
        site_ids.append(-1)
        kinds.append(NameKind.FQDN)
        shares.append(0.0)
        dns_weights.append(weight)

    return NameTable(
        strings=strings,
        site=np.asarray(site_ids, dtype=np.int32),
        kind=np.asarray(kinds, dtype=np.int8),
        share=np.asarray(shares, dtype=np.float64),
        dns_weight=np.asarray(dns_weights, dtype=np.float64),
    )
