"""The four benchmark workloads: what each child process sets up and times.

Nothing here imports `rootposets` at module level, so run.py can read the
workload table without loading the library into its own process.

Library workloads (`ad-minimal`, `edge-routes`) draw their ideals with the
benchmark's own `random.Random(seed)`: the ideals of each system are sorted
by (size, mask) and split into as many equal strata as the sample has
ideals, and one ideal is drawn from each stratum.  Every ideal is equally
likely to be drawn, but the total work of a sample varies far less between
seeds than with a plain `rng.sample`, which the run-to-run bounds need.
`ideals.sample_ideals` is not used: it forces in the small principal ideals.

CLI workloads (`abelian-verify`, `verify-small`) are fixed command lines;
the seed does not apply to them.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, NamedTuple


class Library(NamedTuple):
    sample: tuple[tuple[str, int], ...]  # (system, number of ideals)
    op: Callable  # one operation on one ideal; returns its digest


class Cli(NamedTuple):
    commands: tuple[tuple[str, ...], ...]


class CheckFailed(Exception):
    """An operation ran but its result is wrong."""


def children_per_round(name: str) -> int:
    spec = WORKLOADS[name]
    return len(spec.commands) if isinstance(spec, Cli) else 1


def stratified_sample(all_ideals, count: int, rng: random.Random) -> list:
    order = sorted(all_ideals, key=lambda ideal: (len(ideal), ideal.mask))
    n = len(order)
    return [order[rng.randrange(i * n // count, (i + 1) * n // count)] for i in range(count)]


def draw_ideals(name: str, seed: int) -> list:
    """The workload's ideals for `seed`; builds the systems and enumerates them."""
    from rootposets import ideals
    from rootposets.rootsystem import root_system

    rng = random.Random(seed)
    out = []
    for sid, count in WORKLOADS[name].sample:
        out.extend(stratified_sample(ideals.enumerate_upper_ideals(root_system(sid)), count, rng))
    return out


def ideal_key(ideal) -> str:
    return f"{ideal.rs.id}:{ideal.mask:x}"


def ideal_digest(ideal, word, types: dict) -> str:
    """Digest of (system, mask, word, edge types): the per-ideal output oracle."""
    text = repr((str(ideal.rs.id), ideal.mask, tuple(word), sorted(types.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Library calls go through module attributes (`ideals.minimal_element`), so a
# traced run sees the wrapped functions.


def ad_minimal_op(ideal) -> str:
    from rootposets import ideals

    me = ideals.minimal_element(ideal)
    ideals.check_minimal_element(me)
    return ideal_digest(ideal, me.word, ideals.generator_edge_types(me))


def edge_routes_op(ideal) -> str:
    from rootposets import ideals

    me = ideals.minimal_element(ideal)
    types = ideals.generator_edge_types(me)
    routes = (
        sorted(types.values()),
        sorted(ideals.facet_types(me)),
        sorted(ideals.alcove_wall_types(me)),
        sorted(ideals.descent_types(me)),
    )
    if any(r != routes[0] for r in routes[1:]):
        raise CheckFailed(f"{ideal_key(ideal)}: routes disagree {routes}")
    return ideal_digest(ideal, me.word, types)


WORKLOADS = {
    "ad-minimal": Library((("E7", 16), ("E8", 32)), ad_minimal_op),
    "edge-routes": Library((("E6", 128),), edge_routes_op),
    "abelian-verify": Cli((("verify", "--suite", "abelian", "--max-rank", "8"),)),
    "verify-small": Cli(
        (
            ("verify", "--suite", "all", "--max-rank", "4"),
            ("verify", "--suite", "delta", "--max-rank", "8"),
            ("verify", "--suite", "weights", "--max-rank", "8"),
            ("verify", "--suite", "covering", "--max-rank", "8"),
        )
    ),
}
