"""Deterministic synthetic crawl world (FIXTURES.md §§1–5).

Everything is a pure function of ``(seed, scale)`` so the engine, the
pure-Python spec oracle (tests/oracle.py) and both parallelism levels of the
bench see a byte-identical world. No external data, no wall-clock, no RNG at
fetch time (all pseudo-randomness flows through ``hash64``).

The world is closed: out-links map back into the bounded
``n_hosts × n_paths`` URL space, so a crawl terminates.
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import hash64

# Hosts with path-prefix disallow rules, and the one fully-disallowed host
# (the SkipContainer analog — FIXTURES.md §4).
DISALLOW_PREFIX_HOSTS = ("h0010", "h0011", "h0012", "h0013", "h0014")
DISALLOW_ALL_HOSTS = ("h0199",)


def host_name(host_id: int) -> str:
    return f"h{host_id:04d}.example"


def seed_url(host_id: int, path_id: int) -> str:
    return f"http://{host_name(host_id)}/p/{path_id}"


def make_seed_urls(n: int, seed: int = 42, n_hosts: int = 200,
                   zipf_s: float = 1.2) -> list[str]:
    """Seed URL list: Zipf(s)-skewed host ids (hot hosts on purpose), plus a
    few verbatim duplicates and non-canonical variants to exercise
    canonicalization + seen-set dedup."""
    rng = np.random.RandomState(seed)
    z = rng.zipf(zipf_s, size=n)
    host_ids = (z - 1) % n_hosts
    urls = [seed_url(int(h), p) for p, h in enumerate(host_ids)]
    extras: list[str] = []
    for i in range(0, n, 97):
        u = urls[i]
        # non-canonical variant: uppercase scheme/host, explicit :80, fragment
        scheme, rest = u.split("://", 1)
        host, path = rest.split("/", 1)
        extras.append(f"HTTP://{host.upper()}:80/{path}#frag")
    for i in range(0, n, 101):
        extras.append(urls[i])  # verbatim duplicate
    return urls + extras


def robots_delay_ms(host: str) -> int:
    if host.startswith("h0000."):
        return 10  # hot + permissive → the skew case
    return 100 + hash64(host) % 400


def robots_rules(host: str) -> list[dict]:
    """Ordered first-match rules; default allow-all."""
    short = host.split(".", 1)[0]
    rules: list[dict] = []
    if short in DISALLOW_ALL_HOSTS:
        rules.append({"allow": False, "path_prefix": "/"})
    if short in DISALLOW_PREFIX_HOSTS:
        rules.append({"allow": False, "path_prefix": "/p/1"})
    rules.append({"allow": True, "path_prefix": "/"})
    return rules


def robots_lookup(n_hosts: int = 200) -> dict[str, dict]:
    """Driver/actor-side broadcast form: host → {delay_ms, rules}."""
    return {
        host_name(i): {
            "crawl_delay_ms": robots_delay_ms(host_name(i)),
            "rules": robots_rules(host_name(i)),
        }
        for i in range(n_hosts)
    }


def path_allowed(rules: list[dict], path: str) -> bool:
    for r in rules:
        if path.startswith(r["path_prefix"]):
            return bool(r["allow"])
    return True


# --------------------------------------------------------------------- fetch
def make_spans(canonical_url: str) -> list[dict]:
    """FIXTURES.md §3: interleaved text+media spans, pure function of the
    canonical URL. ``offset`` is the cumulative length of prior span
    payloads (strictly increasing)."""
    k = hash64(canonical_url)
    nspans = 3 + k % 6
    spans: list[dict] = []
    off = 0
    for i in range(nspans):
        if (k >> i) & 1:
            text, media = f"t{k % 997}-{i}", ""
        else:
            text, media = "", f"m://{k % 997}/{i}"
        spans.append(
            {"kind": "text" if text else "media", "text": text,
             "media_ref": media, "offset": off}
        )
        off += len(text) + len(media)
    return spans


def out_links(canonical_url: str, n_hosts: int, n_paths: int) -> list[str]:
    """Closed-world link graph: 2 + k%4 links, hashed back into the
    seed-URL space (FIXTURES.md §3)."""
    k = hash64(canonical_url)
    links = []
    for j in range(2 + k % 4):
        lh = hash64(canonical_url + str(j))
        links.append(seed_url(lh % n_hosts, (lh // n_hosts) % n_paths))
    return links


def fails_first_attempt(canonical_url: str, fail_mod: int) -> bool:
    """Deterministic transient-failure injector (FIXTURES.md §5): the fetch
    errors on attempt 0 iff hash64 % fail_mod == 0, succeeds on retry."""
    return fail_mod > 0 and hash64(canonical_url) % fail_mod == 0
