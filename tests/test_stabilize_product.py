"""The stabilized character against the product over the positive roots.

With unit top, the normalized limit lim_k e^{-k varpi_i} ch W^(i)_k is

    prod_{alpha > 0} (1 - e^{-alpha})^{-[alpha : alpha_i]},

[alpha : alpha_i] the coefficient of alpha_i in alpha.  Mukhin and Young
conjectured a product formula of this kind (*Affinization of category O for
quantum groups*), and C.-h. Lee proved one (*Product formula for the limits
of normalized characters of Kirillov-Reshetikhin modules*).  The form above
has not been compared with the text of Lee's theorem, so this file tests it
and does not cite it.  The check is at weight level: a term's node counts
are its weight below the top, and height N keeps the monomials e^{-beta}
whose root coefficients sum to at most N.  The right side is built from
the Cartan matrix alone.
"""
from collections import Counter

import pytest

from yqchar.cartan import LieType, build_cartan
from yqchar.characters import stabilize
from yqchar.monomials import _unsite

# every node, at height 3 up to rank 4 and at height 2 above
TYPES = ("A3", "B2", "C2", "G2", "B3", "C3", "D4", "F4", "E6", "E7")
CARTAN = {name: build_cartan(LieType.parse(name)) for name in TYPES}
CASES = [(name, i, 3 if CARTAN[name].rank <= 4 else 2)
         for name in TYPES for i in CARTAN[name].nodes]


def positive_roots(cartan) -> set:
    """The positive roots as simple-root coefficient tuples, by reflection
    closure of the simple roots: s_j(beta) = beta - <beta, alpha_j^v> alpha_j,
    with <alpha_k, alpha_j^v> = c_jk."""
    rank = cartan.rank
    simple = [tuple(int(k == j) for k in range(rank)) for j in range(rank)]
    roots, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for j in range(rank):
            p = sum(b * cartan.c[j][k] for k, b in enumerate(beta))
            image = tuple(b - p * (k == j) for k, b in enumerate(beta))
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                todo.append(image)
    return roots


def root_product(cartan, i, N) -> Counter:
    """{node counts: coefficient} of prod (1 - e^{-beta})^{-[beta : alpha_i]}
    truncated at height N, one geometric series per factor."""
    out = Counter({(0,) * cartan.rank: 1})
    for beta in positive_roots(cartan):
        for _ in range(beta[i - 1]):
            step = Counter()
            for mu, c in out.items():
                m = 0
                while sum(mu) + m * sum(beta) <= N:
                    step[tuple(a + m * b for a, b in zip(mu, beta))] += c
                    m += 1
            out = step
    return out


def node_counts(cartan, terms) -> Counter:
    out = Counter()
    for v, c in terms:
        counts = [0] * cartan.rank
        for s in v.sites:
            counts[_unsite(s)[0] - 1] += 1
        out[tuple(counts)] += c
    return out


def test_the_root_systems_have_their_sizes():
    sizes = {name: len(positive_roots(CARTAN[name])) for name in TYPES}
    assert sizes == {"A3": 6, "B2": 4, "C2": 4, "G2": 6, "B3": 9, "C3": 9, "D4": 12,
                     "F4": 24, "E6": 36, "E7": 63}


@pytest.mark.parametrize("name, i, N", CASES)
def test_stabilize_matches_the_root_product(name, i, N):
    cartan = CARTAN[name]
    assert node_counts(cartan, stabilize(cartan, i, 0, N).terms) == root_product(cartan, i, N)
