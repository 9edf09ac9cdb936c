"""Workload inputs derived from the benchmark seed alone.

Everything random a workload feeds the system comes from here: the serve
ladder's Poisson arrival schedule, each request's candidate pairs and
session, the hot-swap times and seeds, and the drift delta script.  The
same seed always gives the same inputs; the determinism test pins that.

``session_c`` and ``onboard_e`` take no random input: the customer schemas
are fixed datasets and the simulated user is a noise-free oracle, so runs
with different seeds repeat the same work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Serve ladder rates (req/s), in the order they run.  A 150 req/s rung
#: refused requests at the ``ServeConfig()`` bound of 8 in flight per
#: session, so the ladder stops at 100.
SERVE_RATES = (50.0, 100.0)
#: The rate whose latency the end-to-end metrics report.  At 100 req/s the
#: backend is ~60 % busy and queueing amplifies machine noise: the mean
#: latency's spread over ten seeds was 20 %, against 6 % at 50 req/s.
SERVE_MAIN_RATE = 50.0
#: Side rungs last this share of the main rung's duration.
SERVE_SIDE_SHARE = 0.4
SERVE_SESSIONS = 8
SERVE_TENANTS = 2
PAIRS_PER_REQUEST = 8
#: One tenant is hot-swapped every this many seconds of each rung.
SWAP_EVERY_S = 2.0
#: Drift script length.
DRIFT_DELTAS = 100
#: Op kind of each drift delta, cycled (two ops per delta).
DRIFT_KINDS = ("rename", "add", "rename", "retype", "drop")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due offset within its rung, session, pairs."""

    offset_s: float
    session: int
    pair_indices: tuple[int, ...]


@dataclass(frozen=True)
class Swap:
    """One scheduled hot-swap: due offset within its rung, tenant, seed."""

    offset_s: float
    tenant: int
    swap_seed: int


@dataclass(frozen=True)
class Rung:
    rate: float
    duration_s: float
    arrivals: tuple[Arrival, ...]
    swaps: tuple[Swap, ...]


def serve_ladder(seed: int, seconds: float, n_candidates: int) -> list[Rung]:
    """The open-loop arrival ladder over ``n_candidates`` encoded pairs.

    The main rung lasts ``seconds``; side rungs :data:`SERVE_SIDE_SHARE` of it.
    """
    if n_candidates < PAIRS_PER_REQUEST:
        raise ValueError(f"need at least {PAIRS_PER_REQUEST} candidate pairs")
    rng = np.random.default_rng([seed, 0x5E7E])
    rungs = []
    swap_count = 0
    for rate in SERVE_RATES:
        duration = seconds if rate == SERVE_MAIN_RATE else SERVE_SIDE_SHARE * seconds
        # A Poisson process conditioned on its count: the arrival times are
        # sorted uniform draws.  Every seed sends exactly rate x duration
        # requests, so seeds differ in when requests cluster, not how many.
        offsets = np.sort(rng.uniform(0.0, duration, size=round(rate * duration)))
        arrivals = []
        for offset in offsets:
            pairs = rng.choice(n_candidates, size=PAIRS_PER_REQUEST, replace=False)
            arrivals.append(
                Arrival(
                    offset_s=float(offset),
                    session=int(rng.integers(SERVE_SESSIONS)),
                    pair_indices=tuple(int(i) for i in pairs),
                )
            )
        swaps = []
        for step in range(1, int(np.ceil(duration / SWAP_EVERY_S))):
            swaps.append(
                Swap(
                    offset_s=step * SWAP_EVERY_S,
                    tenant=swap_count % SERVE_TENANTS,
                    swap_seed=int(rng.integers(2**31)),
                )
            )
            swap_count += 1
        rungs.append(Rung(rate, duration, tuple(arrivals), tuple(swaps)))
    return rungs


def session_tenant(session: int) -> int:
    return session % SERVE_TENANTS


def drift_script(schema, seed: int) -> list:
    """:data:`DRIFT_DELTAS` deltas against ``schema``, each applied before the next.

    Each delta comes from the library's ``DriftGenerator`` restricted to one
    op kind, cycling through :data:`DRIFT_KINDS`.  Every seed therefore
    adds, drops, renames and retypes the same number of columns; the seed
    picks which columns and names.  (A free op mix lets the source schema
    end anywhere between 78 and 96 columns, and the per-step work with it.)
    """
    from repro.datasets.drift import DriftConfig, DriftGenerator

    deltas = []
    for index in range(DRIFT_DELTAS):
        kind = DRIFT_KINDS[index % len(DRIFT_KINDS)]
        config = DriftConfig(num_deltas=1, mix={kind: 1.0}, seed=seed * DRIFT_DELTAS + index)
        generator = DriftGenerator(schema, config)
        deltas.append(generator.next_delta())
        schema = generator.schema
    return deltas
