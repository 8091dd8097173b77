"""The SES kernel route of ``demazure_char_via_ses`` against a reference.

``reference_ses`` is the route as it was before it truncated by height
outside the kernel top v0: its four KR characters are expanded at height
N + k and multiplied in full up to that height.  The route under test keeps
only the ledgers within N of v0.  Both must give the same character, or
raise the same EngineError text, on every case of the sweep.
"""
import pytest

import yqchar.characters as characters
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import (
    EngineError, TruncatedCharacter, _ledger_acc, _sites, fm_expand, kr_top_y,
)
from yqchar.coords import coord
from yqchar.monomials import AVector, _remove, avector_to_psi


def reference_ses(cartan, i, t, k, x, bound, config):
    di = cartan.di(i)
    x0 = x - (k + 1) * di
    inner = None if bound is None else bound + k
    a, b, c, d = (fm_expand(cartan, kr_top_y(cartan, i, kk, base, config), inner, config)
                  for kk, base in ((k, x0), (k + t, x0 + di), (k - 1, x0 + di),
                                   (k + t + 1, x0)))
    if a.top * b.top != c.top * d.top:
        raise EngineError("engine fault: SES tensor tops disagree")
    # One accumulator on site tuples: a*b added, c*d subtracted.  A key that
    # c*d adds is already a negative coefficient, so the budget on the
    # accumulator bounds each product exactly when the difference is valid.
    budget = config.term_budget
    diff = _ledger_acc(_sites(c.terms), _sites(d.terms), inner, budget,
                       _ledger_acc(_sites(a.terms), _sites(b.terms), inner, budget), -1)
    if min(diff.values()) < 0:
        raise EngineError("negative coefficient in SES difference: engine fault")
    # the kernel top is w * prod_{m=1..k} A_{i,x0+m d_i}^-1
    v0 = AVector(tuple(((i, x0 + m * di), 1) for m in range(1, k + 1)))
    if diff.get(v0.sites) != 1:
        raise EngineError("SES difference is missing its expected top term")
    rebased = {}
    for v, cc in diff.items():
        if cc:
            q = _remove(v, v0.sites)
            if q is None:
                raise EngineError(f"SES difference term {AVector(v, canonical=True)!r} "
                                  "does not contain the kernel top ledger")
            rebased[AVector(q, canonical=True)] = cc
    return TruncatedCharacter.make(a.top * b.top * avector_to_psi(cartan, v0), rebased, bound)


def _outcome(route, *args):
    """(top, terms, height_bound) of one route's kernel, or its EngineError text."""
    try:
        ch = route(*args)
    except EngineError as ex:
        return str(ex)
    return ch.top, ch.terms, ch.height_bound


TYPES = ("A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4")
POINTS = ("0", "1/3", "x")


@pytest.mark.parametrize("name", TYPES)
def test_the_kernel_within_n_of_its_top_is_the_reference(name):
    cartan = build_cartan(LieType.parse(name))
    config = characters.DEFAULT_CONFIG
    cases = 0
    for i in cartan.nodes:
        for k in (1, 2, 3, 4):
            for t in (0, 1, 2):
                for x in map(coord, POINTS):
                    for bound in (0, 1, 2, 3, 4):
                        want = _outcome(reference_ses, cartan, i, t, k, x, bound, config)
                        got = _outcome(characters._demazure_char_via_ses,
                                       cartan, i, t, k, x, bound, config)
                        assert got == want, (name, i, k, t, x, bound)
                        cases += 1
    assert cases == 180 * cartan.rank
