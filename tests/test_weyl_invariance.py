"""Every complete character is a g-character: its weight multiplicities are
invariant under the Weyl group.  Swept over KR characters, m-weight
characters, SES kernels and the characters of rank-one matrix modules."""
from collections import Counter

import pytest

from yqchar.cartan import LieType, build_cartan
from yqchar.characters import demazure_char_via_ses, fm_expand, kr_top_y
from yqchar.identities import _check_realizable, tq_lhs_direct
from yqchar.monomials import _unsite, weight_projection
from yqchar.sl2_explicit import extract_qchar

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
    less alpha_j for each site at node j."""
    return multiplicities(cartan, [k if r == i - 1 else 0 for r in range(cartan.rank)], terms)


def multiplicities(cartan, top, terms) -> Counter:
    """{weight: multiplicity} of the (AVector, coefficient) ``terms`` under the
    top weight ``top`` (integer varpi-coordinates).  alpha_j is column j of the
    Cartan matrix, alpha_j = sum_r c_rj varpi_r (as in ``Weight.simple_root``)."""
    rank = cartan.rank
    alpha = [[cartan.c[r][j] for r in range(rank)] for j in range(rank)]
    out = Counter()
    for v, c in terms:
        mu = list(top)
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


def assert_weyl_invariant(cartan, mult):
    for j in range(cartan.rank):            # s_j(mu) = mu - mu_j alpha_j
        alpha = [cartan.c[r][j] for r in range(cartan.rank)]
        for mu, c in mult.items():
            image = tuple(m - mu[j] * a for m, a in zip(mu, alpha))
            assert mult.get(image, 0) == c, (j + 1, mu)


def top_weight(cartan, top) -> list:
    """The integer varpi-coordinates of the l-weight ``top``."""
    coords = weight_projection(cartan, top).coords
    assert all(c.is_rational and c.rat.denominator == 1 for c in coords)
    return [int(c.rat) for c in coords]


# (type, largest k): every node, every k from 1 up, at x = 0.  An m-weight
# character is swept at each k that route R1 of the TQ relation accepts, an
# SES kernel at t = 0 and 1.  Neither top is k varpi_i, so the top weight is
# read off the top l-weight.
MODULE_SWEEP = [("A2", 3), ("A3", 2), ("B2", 3), ("C2", 3), ("G2", 1), ("B3", 1), ("C3", 1),
                ("D4", 1)]
CARTAN.update((name, build_cartan(LieType.parse(name))) for name, _ in MODULE_SWEEP)


def realizable(cartan, i, k) -> bool:
    try:
        _check_realizable(cartan, i, k)
    except ValueError:
        return False
    return True


MODULE_CASES = [(name, i, k) for name, kmax in MODULE_SWEEP for i in CARTAN[name].nodes
                for k in range(1, kmax + 1)]
M_CASES = [case for case in MODULE_CASES if realizable(CARTAN[case[0]], *case[1:])]


def test_the_module_sweeps_have_their_sizes():
    assert (len(M_CASES), 2 * len(MODULE_CASES)) == (29, 72)


@pytest.mark.parametrize("name, i, k", M_CASES)
def test_a_complete_m_weight_character_is_weyl_invariant(name, i, k):
    cartan = CARTAN[name]
    ch = tq_lhs_direct(cartan, i, k, 0, None)
    assert ch.height_bound is None
    assert_weyl_invariant(cartan, multiplicities(cartan, top_weight(cartan, ch.top), ch.terms))


@pytest.mark.parametrize("name, i, k", MODULE_CASES)
@pytest.mark.parametrize("t", (0, 1))
def test_a_complete_ses_kernel_is_weyl_invariant(name, i, k, t):
    cartan = CARTAN[name]
    ch = demazure_char_via_ses(cartan, i, t, k, 0, None)
    assert ch.height_bound is None
    assert_weyl_invariant(cartan, multiplicities(cartan, top_weight(cartan, ch.top), ch.terms))


# Every finite rank-one module with 1 <= k <= 6, at x = 0, 1/3 and -7/3: its
# character is read off the explicit Cartan action, with no fm_expand.
RANK_ONE_CASES = [(k, x) for k in range(1, 7) for x in ("0", "1/3", "-7/3")]


@pytest.mark.parametrize("k, x", RANK_ONE_CASES)
def test_a_rank_one_module_character_is_weyl_invariant(k, x):
    a1 = CARTAN["A1"]
    ch = extract_qchar("finite", k, x)
    assert ch.height_bound is None and ch.dimension() == k + 1
    assert_weyl_invariant(a1, multiplicities(a1, top_weight(a1, ch.top), ch.terms))
