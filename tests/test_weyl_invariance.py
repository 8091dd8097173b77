"""Every complete KR character is a g-character: its weight multiplicities
are invariant under the Weyl group."""
from collections import Counter

import pytest

from yqchar.cartan import LieType, build_cartan
from yqchar.characters import fm_expand, kr_top_y
from yqchar.monomials import _unsite

# (type, largest k): every node, every k from 1 up, at x = 0 and at x = 1/3.
# At 1/3 the character is a translate of the one at 0 (see fm_expand), so
# its rows are read through the row move of a translate.
SWEEP = [("A1", 6), ("A2", 4), ("A3", 3), ("A4", 2), ("B2", 4), ("C2", 4), ("G2", 3),
         ("B3", 2), ("C3", 2), ("D4", 2), ("F4", 1), ("E6", 1)]
CARTAN = {name: build_cartan(LieType.parse(name)) for name, _ in SWEEP}
CASES = [(name, i, k, x) for name, kmax in SWEEP for i in CARTAN[name].nodes
         for k in range(1, kmax + 1) for x in ("0", "1/3")]


def weight_multiplicities(cartan, i, k, terms) -> Counter:
    """{weight: multiplicity}, a weight as integer varpi-coordinates: k varpi_i
    less alpha_j for each site at node j.  alpha_j is column j of the Cartan
    matrix, alpha_j = sum_r c_rj varpi_r (as in ``Weight.simple_root``)."""
    rank = cartan.rank
    alpha = [[cartan.c[r][j] for r in range(rank)] for j in range(rank)]
    out = Counter()
    for v, c in terms:
        mu = [k if r == i - 1 else 0 for r in range(rank)]
        for s in v.sites:
            a = alpha[_unsite(s)[0] - 1]
            mu = [m - n for m, n in zip(mu, a)]
        out[tuple(mu)] += c
    return out


@pytest.mark.parametrize("name, i, k, x", CASES)
def test_a_complete_kr_character_is_weyl_invariant(name, i, k, x):
    cartan = CARTAN[name]
    ch = fm_expand(cartan, kr_top_y(cartan, i, k, x))
    assert ch.height_bound is None and ("_t" in vars(ch)) == (x != "0")
    mult = weight_multiplicities(cartan, i, k, ch.terms)
    for j in range(cartan.rank):            # s_j(mu) = mu - mu_j alpha_j
        alpha = [cartan.c[r][j] for r in range(cartan.rank)]
        for mu, c in mult.items():
            image = tuple(m - mu[j] * a for m, a in zip(mu, alpha))
            assert mult.get(image, 0) == c, (j + 1, mu)
