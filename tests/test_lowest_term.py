"""The lowest-term certificate of a complete KR character.

Every complete KR character W^(i)_{k,x} has a unique term of greatest
height, with coefficient 1.  Its l-weight is the inverse of the KR string
at the dual node, moved down by kappa = r^v h^v / 2:

    top * A-ledger = kr_top_y(dual i, k, x - kappa)^-1,

the Yangian form of Frenkel-Mukhin's lowest l-weight.  Here r^v is the
lacing number, h^v the dual Coxeter number, and the dual node is the image
of i under -w_0.
"""
from fractions import Fraction

import pytest

from test_weyl_invariance import CARTAN, SWEEP
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import fm_expand, kr_top_y
from yqchar.monomials import avector_to_y, psi_to_y

LACING = {"A": 1, "D": 1, "E": 1, "B": 2, "C": 2, "F": 2, "G": 3}

# The Weyl sweep's types and k, and D5 (odd rank, so its dual swaps nodes 4
# and 5), each at x = 0 and 1/3.
CARTAN = dict(CARTAN, D5=build_cartan(LieType.parse("D5")))
CASES = [(name, i, k, x) for name, kmax in SWEEP + [("D5", 1)] for i in CARTAN[name].nodes
         for k in range(1, kmax + 1) for x in (Fraction(0), Fraction(1, 3))]


def dual_coxeter(lt: LieType) -> int:
    n = lt.rank
    return {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2, "F": 9, "G": 4,
            "E": {6: 12, 7: 18, 8: 30}.get(n)}[lt.series]


def dual_node(lt: LieType, i: int) -> int:
    """i under -w_0: reversed in A_n, 1<->6 and 3<->5 in E6, n-1<->n in D_n
    with n odd, fixed otherwise."""
    n = lt.rank
    if lt.series == "A":
        return n + 1 - i
    if lt.series == "D" and n % 2 and i >= n - 1:
        return 2 * n - 1 - i
    if lt.series == "E" and n == 6:
        return {1: 6, 6: 1, 3: 5, 5: 3}.get(i, i)
    return i


def test_the_sweep_has_its_size():
    assert len(CASES) == 176


@pytest.mark.parametrize("name, i, k, x", CASES)
def test_the_lowest_term_is_the_dual_inverse_string(name, i, k, x):
    cartan = CARTAN[name]
    lt = cartan.lie_type
    ch = fm_expand(cartan, kr_top_y(cartan, i, k, x))
    assert ch.height_bound is None
    height = max(v.height for v, _ in ch.terms)
    lowest = [(v, c) for v, c in ch.terms if v.height == height]
    assert len(lowest) == 1 and lowest[0][1] == 1
    kappa = Fraction(LACING[lt.series] * dual_coxeter(lt), 2)
    weight = psi_to_y(cartan, ch.top) * avector_to_y(cartan, lowest[0][0])
    assert weight == kr_top_y(cartan, dual_node(lt, i), k, x - kappa) ** -1
