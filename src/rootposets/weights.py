"""Weight systems of highest-weight modules and their weight diagrams.

Weights live in fundamental-weight coordinates (integer tuples).  The
multiplicity function comes from the Freudenthal recursion in integers over
the dominant weights only, with the form scaled by D
(`RootSystem.form_weights`); every other weight takes the multiplicity of its
dominant representative, found once per module (`_dominant_map`).  The total
dimension is checked against the Weyl dimension formula on every construction
(a mismatch raises `RootSystemError`), so a silently incomplete weight set
cannot survive.  Weight-diagram edges join weights differing by a simple root
and carry multiplicity min of the endpoint multiplicities; each module builds
its diagram once (`WeightSystem.edges`), and the per-type counts can be
recomputed independently through restriction to the sl2 of that simple root
(`sl2_edge_count`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, index, mul, sub
from typing import NamedTuple, Sequence

from .rootsystem import Root, RootSystem, RootSystemError

Weight = tuple[int, ...]


class WeightEdge(NamedTuple):
    upper: Weight
    lower: Weight
    type_index: int
    multiplicity: int


def _alpha_in_weight_coords(rs: RootSystem, i: int) -> Weight:
    """Fundamental-weight coordinates of alpha_i: column i of the Cartan matrix."""
    return tuple(rs.cartan[j][i] for j in range(rs.rank))


def _pair(rs: RootSystem, weight: Sequence[int], root_coords: Sequence[int]) -> int:
    """D*(x, gamma) for x in fundamental-weight and gamma in root coordinates."""
    return sum(x * e * g for x, e, g in zip(weight, rs.form_weights, root_coords))


def root_to_weight_coords(rs: RootSystem, root: Root) -> Weight:
    """(<root, alpha_i^vee>)_i: the Cartan matrix times the root coordinates."""
    return tuple(sum(map(mul, row, root)) for row in rs.cartan)


def weyl_dimension(rs: RootSystem, highest: Weight) -> int:
    """Weyl dimension formula, exact."""
    rho = (1,) * rs.rank
    lam_rho = tuple(h + 1 for h in highest)
    num = den = 1
    for gamma in rs.positive_roots:
        num *= _pair(rs, lam_rho, gamma)
        den *= _pair(rs, rho, gamma)
    dim, rest = divmod(num, den)
    if rest:
        raise RootSystemError(f"Weyl dimension formula gives the non-integer {num}/{den}")
    return dim


@dataclass(frozen=True)
class WeightSystem:
    rs: RootSystem = field(compare=False, repr=False)
    highest: Weight
    multiplicity: dict[Weight, int] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return sum(self.multiplicity.values())

    @property
    def weights(self) -> list[Weight]:
        return sorted(self.multiplicity)

    def __contains__(self, weight: Weight) -> bool:
        return weight in self.multiplicity

    @cached_property
    def edges(self) -> list[WeightEdge]:
        """The weight diagram, built once per module."""
        return weight_diagram_edges(self)


def weight_system(rs: RootSystem, highest: Weight) -> WeightSystem:
    """All weights of the irreducible module with the given highest weight.

    Each entry must be an integer (an `int`, or any type `operator.index`
    accepts); a float or a `Fraction` raises, even when its value is whole.
    """
    try:
        highest = tuple(map(index, highest))
    except TypeError:
        raise RootSystemError(f"{tuple(highest)} has an entry that is not an integer") from None
    if len(highest) != rs.rank:
        raise RootSystemError("weight has the wrong rank")
    if any(c < 0 for c in highest):
        raise RootSystemError(f"{highest} is not dominant")

    below = _saturate(rs, highest)
    for w, diff in below.items():
        if any(c < 0 for c in diff):
            raise RootSystemError(f"{w} is not below {highest} in the root lattice")
    dom = _dominant_map(rs, below)
    dominants = sorted((w for w in below if dom[w] == w), key=lambda w: sum(below[w]))
    mult = _freudenthal(rs, highest, below, dominants, dom)
    full = {w: mult[dom[w]] for w in below}
    ws = WeightSystem(rs, highest, full)
    if ws.dim != weyl_dimension(rs, highest):
        raise RootSystemError("multiplicities disagree with Weyl dimension")
    return ws


def _saturate(rs: RootSystem, highest: Weight) -> dict[Weight, Root]:
    """Close {highest} under full alpha_i-strings toward each reflection.

    Returns {mu: highest - mu in root coordinates}: each step by k*alpha_i moves
    the weight and its difference alike, and the difference is unique because
    the simple roots are independent.
    """
    alphas = [_alpha_in_weight_coords(rs, i) for i in range(rs.rank)]
    below = {highest: (0,) * rs.rank}
    stack = [highest]
    while stack:
        mu = stack.pop()
        diff = below[mu]
        for i, alpha in enumerate(alphas):
            c = mu[i]
            move, sign = (sub, 1) if c > 0 else (add, -1)
            nu = mu
            for k in range(1, abs(c) + 1):
                nu = tuple(map(move, nu, alpha))
                if nu not in below:
                    d = list(diff)
                    d[i] += sign * k
                    below[nu] = tuple(d)
                    stack.append(nu)
    return below


def _dominant_map(rs: RootSystem, below: dict[Weight, Root]) -> dict[Weight, Weight]:
    """{weight: its dominant representative} for every weight of `below`.

    Reflect at the first negative coordinate until none is left, with every
    weight on a path memoized: `below` is W-stable, so each path stays inside
    it and every weight is reflected at most once.
    """
    alphas = [_alpha_in_weight_coords(rs, i) for i in range(rs.rank)]
    dom: dict[Weight, Weight] = {}
    for start in below:
        path = []
        w = start
        while w not in dom:
            neg = next((i for i, c in enumerate(w) if c < 0), None)
            if neg is None:
                dom[w] = w
                break
            path.append(w)
            c = w[neg]
            w = tuple(x - c * a for x, a in zip(w, alphas[neg]))
        top = dom[w]
        for p in path:
            dom[p] = top
    return dom


def _freudenthal(
    rs: RootSystem,
    highest: Weight,
    below: dict[Weight, Root],
    dominants: list[Weight],
    dom: dict[Weight, Weight],
) -> dict[Weight, int]:
    """Multiplicities of the dominant weights, highest first; D cancels in the ratio.

    Along the string mu + k*gamma, D*(mu + k*gamma, gamma) grows by
    D*(gamma, gamma) per step, so each step costs one addition; `dom` has
    exactly the weights of `below`, so a miss ends the string.
    """
    mult: dict[Weight, int] = {highest: 1}
    strings = []
    for gamma in rs.positive_roots:
        gfw = root_to_weight_coords(rs, gamma)
        e_gamma = tuple(e * g for e, g in zip(rs.form_weights, gamma))
        strings.append((gfw, e_gamma, sum(map(mul, gfw, e_gamma))))
    for mu in dominants:
        if mu == highest:
            continue
        acc = 0
        for gfw, e_gamma, step in strings:
            up = mu
            pair = sum(map(mul, mu, e_gamma))
            while True:
                up = tuple(map(add, up, gfw))
                top = dom.get(up)
                if top is None:
                    break
                pair += step
                acc += mult[top] * pair
        lam_mu_rho = [h + m + 2 for h, m in zip(highest, mu)]
        denom = _pair(rs, lam_mu_rho, below[mu])
        if denom <= 0:
            raise RootSystemError("Freudenthal denominator must be positive below the highest weight")
        value, rest = divmod(2 * acc, denom)
        if rest or value < 1:
            raise RootSystemError(f"Freudenthal multiplicity of {mu} is {2 * acc}/{denom}")
        mult[mu] = value
    return mult


# -- weight diagram -----------------------------------------------------------


def weight_diagram_edges(ws: WeightSystem) -> list[WeightEdge]:
    """Edges (nu+alpha_i, nu) with multiplicity min of endpoint multiplicities."""
    rs = ws.rs
    alphas = [_alpha_in_weight_coords(rs, i) for i in range(rs.rank)]
    mult = ws.multiplicity
    edges = []
    for lower in ws.weights:
        m_lower = mult[lower]
        for i, alpha in enumerate(alphas):
            upper = tuple(map(add, lower, alpha))
            m_upper = mult.get(upper)
            if m_upper is not None:
                edges.append(WeightEdge(upper, lower, i, min(m_upper, m_lower)))
    return edges


def edge_type_counts(ws: WeightSystem) -> list[int]:
    """Per-type edge counts, multiplicities included."""
    counts = [0] * ws.rs.rank
    for e in ws.edges:
        counts[e.type_index] += e.multiplicity
    return counts


def sl2_edge_count(ws: WeightSystem, i: int) -> int:
    """Independent count of type-i edges via restriction to the i-th sl2.

    If the module restricts to sum of n_d copies of the (d+1)-dimensional
    sl2-module, the diagram has sum n_d * d edges of type alpha_i.
    """
    level: Counter[int] = Counter()
    for w, m in ws.multiplicity.items():
        level[w[i]] += m
    total = 0
    top = max(level) if level else 0
    for d in range(1, top + 1):
        n_d = level.get(d, 0) - level.get(d + 2, 0)
        if n_d < 0:
            raise RootSystemError(f"negative sl2 multiplicity at highest weight {d}")
        total += n_d * d
    return total


def zero_deleted_type_counts(ws: WeightSystem) -> list[int]:
    """Per-type edge counts after deleting the zero weight from the diagram."""
    zero = (0,) * ws.rs.rank
    counts = [0] * ws.rs.rank
    for e in ws.edges:
        if e.upper != zero and e.lower != zero:
            counts[e.type_index] += e.multiplicity
    return counts


# -- standard modules of interest ---------------------------------------------


def adjoint_weight(rs: RootSystem) -> Weight:
    return root_to_weight_coords(rs, rs.theta)


def short_dominant_weight(rs: RootSystem) -> Weight:
    return root_to_weight_coords(rs, rs.theta_short)


def spin_weight(rs: RootSystem) -> Weight:
    """The B_n spin module: the fundamental weight at the short simple root."""
    if rs.family != "B":
        raise RootSystemError("spin module is a B-family construction")
    return tuple(1 if i == rs.rank - 1 else 0 for i in range(rs.rank))


def fundamental_weight(rs: RootSystem, i: int) -> Weight:
    return tuple(1 if j == i else 0 for j in range(rs.rank))
