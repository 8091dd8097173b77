"""Golden corpus: fixed CLI invocations and digests of their exact output.

Every entry is (argv, exit code, digest of stdout and stderr).  The whole
corpus runs in one process, in order, so the engine's caches are shared
between jobs; B2 and C2 jobs are interleaved so that a cache keyed without
the Cartan data would return the other type's answer.

To print the table for the code as it stands (after a deliberate change of
output):

    PYTHONPATH=src python3 tests/test_golden.py
"""
import hashlib
import io
import os
from pathlib import Path

import yqchar.cli as cli

# One suite entry of every identity kind.
SUITE = str(Path(__file__).with_name("golden_suite.json"))


def _kr(t, i, k, *rest):
    return ("qchar", "kr", "--type", t, "--node", str(i), "--k", str(k), *rest)


def _v(what, t, i, *rest):
    return ("verify", what, "--type", t, "--node", str(i), *rest)


def _dz(t, i, k, tt, height, *rest):
    return ("qchar", "demazure", "--type", t, "--node", str(i), "--k", str(k), "--t", str(tt),
            "--height", str(height), *rest)


GOLDEN = [
    (_kr("A2", 1, 2, "--format", "json"), 0, "909d75dcb897b50e"),
    (_kr("A3", 2, 2), 0, "9832eb6404adc371"),
    (_kr("B2", 2, 3, "--format", "json"), 0, "ba9beb5b9f4acf83"),
    (_kr("C2", 1, 3, "--format", "json"), 0, "002ac6bcc7e08804"),
    (_kr("B2", 1, 2, "--x", "1/2", "--format", "json"), 0, "45657f4f8cd944ae"),
    (_kr("C2", 2, 2, "--x", "1/2", "--format", "json"), 0, "9c776d0ac39f5d7c"),
    (_kr("B3", 3, 2, "--height", "3", "--format", "json"), 0, "b5ceafd106563383"),
    (_kr("C3", 1, 2, "--x=-3/2"), 0, "5ebe91b398ece80a"),
    (_kr("D4", 2, 1, "--format", "json"), 0, "8d4f6d222cbbf5ea"),
    (_kr("E6", 1, 2, "--format", "json"), 0, "5a148dc7f9279c71"),
    (_kr("F4", 4, 1, "--x", "1/3", "--format", "json"), 0, "aee0ee27315086ee"),
    (_kr("G2", 1, 2, "--x=-3/2", "--format", "json"), 0, "162449bc20de9d6c"),
    (_kr("G2", 2, 2, "--x", "k", "--format", "json"), 0, "830a4360bf03f50b"),
    (("qchar", "demazure", "--type", "A1", "--node", "1", "--k", "2", "--t", "1",
      "--format", "json"), 0, "00b13a6b8fa0d292"),
    (("qchar", "demazure", "--type", "B2", "--node", "2", "--k", "1", "--t", "1",
      "--x", "x", "--height", "3", "--format", "json"), 0, "a73d6212770a795a"),
    (("qchar", "demazure", "--type", "C2", "--node", "2", "--k", "1", "--t", "1",
      "--x", "x", "--height", "3", "--format", "json"), 0, "fbc986a8b0811df9"),
    (("qchar", "asymptotic", "--type", "A2", "--node", "1", "--y", "y", "--x", "x",
      "--height", "3", "--format", "json"), 0, "9a7b64dc1d07727b"),
    (("qchar", "asymptotic", "--type", "B2", "--node", "2", "--y", "x+k", "--x", "x",
      "--height", "3", "--format", "json"), 0, "31dd6f85d779d899"),
    (("qchar", "asymptotic", "--type", "C2", "--node", "2", "--y", "x+k", "--x", "x",
      "--height", "3"), 0, "b947676c8a515010"),
    (("qchar", "prefundamental", "--type", "G2", "--node", "1", "--sign", "-",
      "--x", "k", "--height", "3", "--format", "json"), 0, "e857af1c0683e5f0"),
    (("qchar", "prefundamental", "--type", "B2", "--node", "1", "--sign", "+",
      "--x", "x", "--format", "json"), 0, "ce20b3527533bc78"),
    (("qchar", "m", "--type", "B2", "--node", "1", "--k", "k", "--x", "1/2",
      "--format", "json"), 0, "7b347afac882b8fc"),
    (("qchar", "n", "--type", "G2", "--node", "1", "--k", "k"), 0, "0b7909d46c56d5ed"),
    (_v("tsystem", "B2", 1, "--k", "2", "--t", "1", "--format", "json"), 0,
     "06938b89590ea89f"),
    (_v("tsystem", "C2", 1, "--k", "2", "--t", "1", "--format", "json"), 0,
     "aba19c1e82ad668b"),
    (_v("tsystem", "G2", 1, "--k", "1", "--t", "1"), 0, "79fbb4bccf3a21e2"),
    (_v("tq", "B2", 2, "--k", "6", "--height", "3", "--format", "json"), 0,
     "1fd5c3d80030f11b"),
    (_v("tq", "C2", 2, "--k", "6", "--height", "3", "--format", "json"), 0,
     "979b7a7c09587b36"),
    (_v("tq", "A2", 1, "--k", "6", "--height", "3", "--x", "1/2"), 0, "b8d7b92a5c257cdf"),
    (_v("two-term", "A1", 1, "--a", "a", "--b", "b", "--x", "x", "--y", "y",
        "--height", "3", "--format", "json"), 0, "30dd4294600e7cae"),
    (_v("two-term", "B2", 2, "--a", "a", "--b", "b", "--x", "x", "--y", "y",
        "--height", "2", "--format", "json"), 0, "0cdc130a3b17ef1b"),
    (_v("kr-skeleton", "C2", 2, "--k", "3", "--format", "json"), 0, "3390ece55d3559c1"),
    (("rep-check", "qchar", "--kind", "finite", "--k", "3", "--x", "1/2",
      "--format", "json"), 0, "97173be6992b8685"),
    (("rep-check", "qchar", "--kind", "truncated", "--k", "5/2", "--M", "6",
      "--format", "json"), 0, "12bf3fc897db7d7e"),
    (("rep-check", "relations", "--kind", "finite", "--k", "3", "--x", "1/2",
      "--format", "json"), 0, "2126f2ad2db321d8"),
    (("rep-check", "relations", "--kind", "truncated", "--k", "7/3", "--x", "1/3",
      "--M", "8", "--format", "json"), 0, "76ac411486311274"),
    (("rep-check", "relations", "--kind", "truncated", "--k=-5/2", "--x=-3/4",
      "--M", "6", "--modes", "2"), 0, "8304ba2cd7640a47"),
    (("rep-check", "three-term", "--x", "2", "--y", "0", "--format", "json"), 0,
     "352e1528e4d6fc1f"),
    (("translate", "--to", "multiplicative", "--monomial",
      "Psi[1,1/2+x] /Psi[2,-1/2+x]", "--format", "json"), 0, "b9bec78044ff21bb"),
    (("translate", "--to", "multiplicative", "--check-tq", "--type", "B2",
      "--node", "2", "--format", "json"), 0, "6bf5c6df9144b7fc"),
    (_kr("D3", 1, 1), 2, "f4f8cd187ba8f8cb"),
    # Several coordinate cosets (mod 1/2) at one node: factors and terms
    # must come out in Coord order, not in the order of an internal key.
    (("translate", "--to", "multiplicative", "--monomial",
      "Psi[1,1/3] /Psi[1,1/2] Psi[1,-1/6] Psi[1,k]"), 0, "8a0cfbf2c36a4fb6"),
    (("qchar", "asymptotic", "--type", "A2", "--node", "1", "--y", "1/3", "--x", "0",
      "--height", "2"), 0, "3cbdb98f6ca6d647"),
    (_kr("G2", 1, 2, "--x", "1/3", "--format", "json"), 0, "8a3bfc8a48cb7fc8"),
    (("qchar", "m", "--type", "B2", "--node", "1", "--k", "k", "--x", "1/3"), 0,
     "4a6ed1efdcb9b678"),
    # A k below the TQ regime (k*d_2 >= 4*d_1 = 8): a usage error in both
    # formats, that names the least k.
    (_v("tq", "B2", 2, "--k", "6", "--height", "4"), 2, "8a22a8f7ab7d3e3f"),
    (_v("tq", "B2", 2, "--k", "6", "--height", "4", "--format", "json"), 2,
     "8a22a8f7ab7d3e3f"),
    # Monomial keys at their edges: offsets far beyond 64 bits (positive,
    # negative, under a symbolic part) and a rank with many nodes.
    (_kr("A1", 1, 3, "--x=1000000000000000000000/7", "--format", "json"), 0,
     "b0c9f267ff7c4d05"),
    (_kr("A1", 1, 3, "--x=-1000000000000000000001/2", "--format", "json"), 0,
     "f1bac5ad3c14c3e2"),
    (_kr("D12", 1, 1, "--format", "json"), 0, "6c2fdc015c534136"),
    (_kr("A20", 10, 1, "--height", "3", "--format", "json"), 0, "6d4b6791c8a55903"),
    (_v("tq", "B2", 2, "--k", "6", "--height", "3", "--x=1000000000000000000000/7",
        "--format", "json"), 0, "9fba0d8060a330fb"),
    (("qchar", "demazure", "--type", "C2", "--node", "1", "--k", "2", "--t", "1",
      "--x=x-1000000000000000000001/2", "--height", "3", "--format", "json"), 0,
     "84dab22c1000ca75"),
    (("qchar", "demazure", "--type", "G2", "--node", "1", "--k", "2", "--t", "1",
      "--x=1000000000000000000000/7", "--height", "3", "--format", "json"), 0,
     "11e3b882c88693ab"),
    # Rank-one modules whose entries have large or coprime denominators, a
    # huge coordinate, and many modes: the relation checker and the
    # eigenvalue series must stay exact.
    (("rep-check", "relations", "--kind", "truncated", "--k=7/1000000007",
      "--x=1/999999937", "--M", "8", "--modes", "3", "--format", "json"), 0,
     "bb5246d28e80df1c"),
    (("rep-check", "relations", "--kind", "finite", "--k=7", "--x=1" + "0" * 300,
      "--modes", "3"), 0, "09637a5902470d13"),
    (("rep-check", "relations", "--kind", "finite", "--k=7", "--x=1/1000000007",
      "--modes", "6"), 0, "a66724f06236b770"),
    (("rep-check", "relations", "--kind", "truncated", "--k=1/3",
      "--x=-10000000000000000000001/7", "--M", "12", "--modes", "5"), 0,
     "570a1f30f7926bf4"),
    (("rep-check", "three-term", "--x=1/1000000007", "--y=3/999999937", "--M", "10",
      "--height", "6"), 0, "c0126ca189206382"),
    (("rep-check", "qchar", "--kind", "truncated", "--k=-5/2", "--x=1/3", "--M", "7",
      "--format", "json"), 0, "7adea84f0093277f"),
    # Support scans and the SES route away from x = 0: symbolic, huge and
    # off-lattice coordinates, t = 0 and t = 2, and a kernel identity in G2.
    (_v("demazure-support", "B2", 2, "--k", "2", "--x", "x", "--height", "3",
        "--format", "json"), 0, "6ef027c7dd897c30"),
    (_v("demazure-support", "G2", 1, "--k", "2", "--x=1000000000000000000000/7",
        "--height", "3", "--format", "json"), 0, "51fca53113ce377e"),
    (_v("demazure-support", "C2", 1, "--k", "2", "--x", "1/3", "--height", "3"), 0,
     "aa9b390ef78e761f"),
    (_v("m-support", "B2", 1, "--k", "3", "--x", "x", "--height", "3", "--format", "json"),
     0, "72b3d1d4289d01fd"),
    (_v("kr-skeleton", "G2", 1, "--k", "3", "--x=-7/2"), 0, "9deec901b58ec2d5"),
    (("qchar", "demazure", "--type", "B2", "--node", "1", "--k", "2", "--t", "0",
      "--x", "k-1/3", "--height", "3", "--format", "json"), 0, "5032e52ec267493a"),
    (("qchar", "demazure", "--type", "C2", "--node", "2", "--k", "1", "--t", "2",
      "--x", "k-1/3", "--height", "3"), 0, "61f207dc324f2247"),
    (_v("tsystem", "G2", 2, "--k", "2", "--t", "0"), 0, "c628f1e8b2c2c633"),
    # Jobs that meet one memoized kernel or stabilized character from
    # another side: the same arguments in B2 then C2, one kernel at two
    # heights, a TQ check and a support scan sharing their SES kernel, and
    # two asymptotic tops and a prefundamental over one stabilized ledger.
    (("qchar", "demazure", "--type", "B2", "--node", "1", "--k", "2", "--t", "1",
      "--x", "1/3", "--height", "3", "--format", "json"), 0, "948230d9123a1e7a"),
    (("qchar", "demazure", "--type", "C2", "--node", "1", "--k", "2", "--t", "1",
      "--x", "1/3", "--height", "3", "--format", "json"), 0, "ecdb2bfafc18cb06"),
    (("qchar", "demazure", "--type", "A2", "--node", "1", "--k", "2", "--t", "1",
      "--x", "y", "--height", "2", "--format", "json"), 0, "2e4353a7617a1bee"),
    (("qchar", "demazure", "--type", "A2", "--node", "1", "--k", "2", "--t", "1",
      "--x", "y", "--height", "4", "--format", "json"), 0, "a398c4f7fe82197a"),
    (_v("tq", "B2", 1, "--k", "4", "--x", "x", "--height", "3", "--format", "json"), 0,
     "b8c3d2297be23438"),
    (_v("demazure-support", "B2", 1, "--k", "4", "--x", "x", "--height", "3",
        "--format", "json"), 0, "8da92849162b87ab"),
    (("qchar", "asymptotic", "--type", "C2", "--node", "1", "--y", "y", "--x", "1/5",
      "--height", "3", "--format", "json"), 0, "70e4b2b14761d47f"),
    (("qchar", "asymptotic", "--type", "C2", "--node", "1", "--y", "1/5+k", "--x", "1/5",
      "--height", "3", "--format", "json"), 0, "7146dde1495e0ee9"),
    (("qchar", "prefundamental", "--type", "C2", "--node", "1", "--sign", "-",
      "--x", "1/5", "--height", "3", "--format", "json"), 0, "9c5dd3e4519e349d"),
    # Several cosets, nodes and indeterminates in one run: every site of a
    # job is keyed by (node, coordinate), whatever its coset.
    (_kr("G2", 1, 2, "--x", "x+k/2", "--format", "json"), 0, "1441ee506c22f788"),
    (_kr("B2", 2, 2, "--x=-7/3"), 0, "0e7fa72b3269cc1a"),
    (("qchar", "asymptotic", "--type", "C2", "--node", "1", "--y", "x+k", "--x", "x-1/3",
      "--height", "3", "--format", "json"), 0, "feb94c7b4fa741de"),
    (_v("kr-skeleton", "B2", 2, "--k", "3", "--x", "1/6+k"), 0, "3dccb2ac9b25000e"),
    (_v("demazure-support", "G2", 2, "--k", "1", "--x=-2/5+x", "--height", "3",
        "--format", "json"), 0, "0804cddbd8f8886f"),
    (("translate", "--to", "multiplicative", "--type", "B2", "--monomial",
      "Psi[2,1/6+k]^2 /Psi[1,-1/3]"), 0, "5619f2e6aafb57df"),
    # Stabilized characters above height 3, in types B to G and in the
    # two-term and TQ checks built on them: each expands a KR string whose
    # length is the height.
    (("qchar", "asymptotic", "--type", "D4", "--node", "2", "--y", "y", "--x", "x",
      "--height", "5", "--format", "json"), 0, "c0e7f5e4852e000e"),
    (("qchar", "prefundamental", "--type", "G2", "--node", "1", "--sign", "-",
      "--x", "x", "--height", "6", "--format", "json"), 0, "8044e9f5266286c2"),
    (("qchar", "asymptotic", "--type", "B3", "--node", "3", "--y", "x+k", "--x", "x",
      "--height", "5"), 0, "f9faea44b00ac46a"),
    (("qchar", "prefundamental", "--type", "F4", "--node", "4", "--sign", "-",
      "--x", "1/3", "--height", "4", "--format", "json"), 0, "f03b81ccbf987450"),
    (("qchar", "prefundamental", "--type", "E6", "--node", "1", "--sign", "-",
      "--x", "0", "--height", "4", "--format", "json"), 0, "79c067ba6b1f6fef"),
    (_v("two-term", "C3", 3, "--a", "a", "--b", "b", "--x", "x", "--y", "y",
        "--height", "5", "--format", "json"), 0, "174269d06bb67bfb"),
    (_v("tq", "B2", 2, "--k", "8", "--height", "4", "--format", "json"), 0,
     "e14cf30172556498"),
    # TQ checks at the default k (the least k of the regime) and on both
    # sides of the regime bound k*d_i >= N*max d_j (G2 node 1 at height 2:
    # the bound is k = 6).
    (_v("tq", "A2", 1), 0, "05a6c687372cc49a"),
    (_v("tq", "B2", 2, "--height", "4", "--format", "json"), 0, "e14cf30172556498"),
    (_v("tq", "G2", 1, "--k", "3", "--height", "2", "--format", "json"), 2,
     "02d956792d0949f5"),
    (_v("tq", "G2", 1, "--k", "6", "--height", "2", "--format", "json"), 0,
     "324df06890f733fa"),
    # Route R2's series division at the default k in the larger types, and
    # the rank-one glued sum at the largest height that M = 6 allows.
    (_v("tq", "D4", 2, "--height", "3", "--format", "json"), 0, "90d74b2cd445e47a"),
    (_v("tq", "B3", 3, "--height", "3", "--format", "json"), 0, "7b522a3dc26224ba"),
    (_v("tq", "C3", 2, "--height", "3", "--format", "json"), 0, "492e95ad8f8e1617"),
    (_v("tq", "G2", 2, "--height", "3", "--format", "json"), 0, "90735b876f63828c"),
    (_v("tq", "F4", 2, "--height", "2", "--format", "json"), 0, "ba7325f2a8df2160"),
    (("rep-check", "three-term", "--x=-5/2", "--y", "1/3", "--M", "6", "--height", "4"),
     0, "3d2e70a387793f6f"),
    # The relation checker at its edges: mode bounds 0 and 1, a module of
    # dimension 1, one safe column (products leave the basis), and a
    # coprime denominator at mode bound 4.
    (("rep-check", "relations", "--kind", "finite", "--k", "2", "--x", "1/3",
      "--modes", "0"), 0, "e365201068aefeda"),
    (("rep-check", "relations", "--kind", "finite", "--k", "2", "--x", "1/3",
      "--modes", "1"), 0, "a9e89396a8901b5c"),
    (("rep-check", "relations", "--kind", "finite", "--k", "0", "--x", "5/2",
      "--format", "json"), 0, "3c9b8cd6dee4f4bc"),
    (("rep-check", "relations", "--kind", "truncated", "--k=7/3", "--x=-1/2", "--M", "3",
      "--format", "json"), 0, "eb1d83083ae5abbc"),
    (("rep-check", "relations", "--kind", "truncated", "--k=1/1000000007", "--x", "2/3",
      "--M", "4", "--modes", "4", "--format", "json"), 0, "3a7e3c4aa03eebb8"),
    # Complete KR characters whose rows repeat a site (^-2 factors): G2
    # with coefficients above 1, negative and third-step points, and a
    # symbolic lane.
    (_kr("G2", 1, 3), 0, "5f6ca376c15cdf59"),
    (_kr("C3", 3, 2, "--x=-1/2"), 0, "7a85ec0b8c5720c5"),
    (_kr("F4", 1, 1, "--x", "1/3"), 0, "ba4bd3d13aef0375"),
    (_kr("B3", 3, 3, "--x", "k+1/3", "--format", "json"), 0, "75336822fa5ab8c5"),
    # Memoized weights and coordinates: one m-weight argv in B2 and C2 in
    # turn, a symbolic k then an int k at one x, one KR module at three
    # spellings of x = 0, and a TQ and a kernel check run twice each, whose
    # warm output must equal the cold one.
    (("qchar", "m", "--type", "B2", "--node", "1", "--k", "6", "--x", "1/2"), 0,
     "2eb9f5039a750ec9"),
    (("qchar", "m", "--type", "C2", "--node", "1", "--k", "6", "--x", "1/2"), 0,
     "84d78d6328116412"),
    (("qchar", "m", "--type", "B2", "--node", "1", "--k", "6", "--x", "1/2",
      "--format", "json"), 0, "fd119c7d3021e258"),
    (("qchar", "m", "--type", "C2", "--node", "1", "--k", "6", "--x", "1/2",
      "--format", "json"), 0, "d8c94d56f589ef43"),
    (("qchar", "m", "--type", "C2", "--node", "2", "--k", "k", "--x", "1/3"), 0,
     "59c8408b7782195e"),
    (("qchar", "m", "--type", "C2", "--node", "2", "--k", "6", "--x", "1/3"), 0,
     "308d59f2d4bfe13c"),
    (_kr("B2", 1, 2, "--x", "0"), 0, "d1da84ba94ead71a"),
    (_kr("B2", 1, 2, "--x", "0/1"), 0, "d1da84ba94ead71a"),
    (_kr("B2", 1, 2, "--x=-0"), 0, "d1da84ba94ead71a"),
    (_v("tq", "B2", 1, "--k", "6", "--height", "3", "--format", "json"), 0,
     "1054efbf42b6644e"),
    (_v("tsystem", "C2", 2, "--k", "2", "--t", "1", "--format", "json"), 0,
     "27618ade56679f0e"),
    (_v("tq", "B2", 1, "--k", "6", "--height", "3", "--format", "json"), 0,
     "1054efbf42b6644e"),
    (_v("tsystem", "C2", 2, "--k", "2", "--t", "1", "--format", "json"), 0,
     "27618ade56679f0e"),
    # Spectral translates of one KR module: the expansion memo may share
    # work between them, but each must print at its own point: integer,
    # third, negative, fifth, symbolic and far-out x; a G2 pair half a step
    # apart; and a kernel check whose SES expands W_{k,x0} and W_{k,x0+d_i}.
    (_kr("B3", 3, 3, "--x", "0"), 0, "ef5f15bb1a643df3"),
    (_kr("B3", 3, 3, "--x", "0", "--format", "json"), 0, "f1bc37fe6e69a418"),
    (_kr("B3", 3, 3, "--x", "1/3"), 0, "3fd4647007d07e01"),
    (_kr("B3", 3, 3, "--x", "1/3", "--format", "json"), 0, "00c98d426cd5d7ae"),
    (_kr("B3", 3, 3, "--x=-3/4"), 0, "83e4d02fe827688c"),
    (_kr("B3", 3, 3, "--x=-3/4", "--format", "json"), 0, "fdee78c8b997a508"),
    (_kr("B3", 3, 3, "--x", "2/5"), 0, "05df7d9ac921204b"),
    (_kr("B3", 3, 3, "--x", "2/5", "--format", "json"), 0, "ea60b95116adeaa6"),
    (_kr("B3", 3, 3, "--x", "x+1/3"), 0, "1d2d7c83e2acd84f"),
    (_kr("B3", 3, 3, "--x", "x+1/3", "--format", "json"), 0, "7383c99df01e3106"),
    (_kr("B3", 3, 3, "--x=1000000000000000000001/7"), 0, "84ceb1fff616fe39"),
    (_kr("B3", 3, 3, "--x=1000000000000000000001/7", "--format", "json"), 0,
     "ee06168c60826dfb"),
    (_kr("G2", 1, 2, "--x", "x"), 0, "3845e4a68da71cc9"),
    (_kr("G2", 1, 2, "--x", "x+1/2"), 0, "a24a6b6ee928186b"),
    (_v("tsystem", "G2", 2, "--k", "2", "--t", "0"), 0, "c628f1e8b2c2c633"),
    # The neighbour data of the TQ relation at its corners: skeleton sites
    # at c_ij = -1, -2 and -3 and k = 1 or 2, n-weights with one and two
    # strings per neighbour, criterion 13 at every bond type, an m-weight
    # support scan in G2 and a c_ij = -2 n-string outside rank two.
    (_v("kr-skeleton", "G2", 1, "--k", "1", "--x", "x"), 0, "054a7fdb4d546a24"),
    (_v("kr-skeleton", "G2", 1, "--k", "2", "--x", "1/3", "--format", "json"), 0,
     "5bace772324fa00f"),
    (_v("kr-skeleton", "B2", 2, "--k", "1", "--x", "x"), 0, "7673ec632ab8a438"),
    (_v("kr-skeleton", "C3", 2, "--k", "2", "--x=-5/2"), 0, "fbf8ef7556d13f82"),
    (_v("kr-skeleton", "C3", 2, "--k", "1", "--format", "json"), 0, "1e70b7a09e24bdd7"),
    (_v("kr-skeleton", "B3", 3, "--k", "2", "--x", "x"), 0, "6bfc726d0a40ae0a"),
    (_v("kr-skeleton", "G2", 2, "--k", "2", "--x", "x"), 0, "5410870b0796f93b"),
    (("qchar", "n", "--type", "B2", "--node", "2", "--k", "4"), 0, "36df494aa6954a46"),
    (("qchar", "n", "--type", "C3", "--node", "2", "--k", "k"), 0, "e1dcc8c08085c0a0"),
    (("qchar", "n", "--type", "F4", "--node", "3", "--k", "2", "--x", "1/3"), 0,
     "ed44cdfa42618b43"),
    (("qchar", "n", "--type", "G2", "--node", "1", "--k", "6", "--format", "json"), 0,
     "6bd853e4b0ace581"),
    (("translate", "--to", "multiplicative", "--check-tq", "--type", "A2", "--node", "1"),
     0, "1333e86cd0a10ffc"),
    (("translate", "--to", "multiplicative", "--check-tq", "--type", "G2", "--node", "1"),
     0, "467d540cbb26fc68"),
    (("translate", "--to", "multiplicative", "--check-tq", "--type", "G2", "--node", "2",
      "--format", "json"), 0, "8a843183d82d8cd5"),
    (("translate", "--to", "multiplicative", "--check-tq", "--type", "C3", "--node", "3"),
     0, "d0a0019ce403a874"),
    (("translate", "--to", "multiplicative", "--check-tq", "--type", "F4", "--node", "2"),
     0, "9aca78df16fc89dd"),
    (_v("m-support", "G2", 1, "--k", "6", "--height", "3"), 0, "a7c51af7117a1a96"),
    (_v("tq", "F4", 3, "--height", "2", "--format", "json"), 0, "48f00354c6ec83ac"),
    # A translate printed from its anchor's rows: repeated sites with
    # coefficients above 1, a truncated translate, six lanes, and a translate
    # met before its anchor, then the anchor, then the translate again.
    (_kr("G2", 1, 3, "--x", "1/3"), 0, "e5d3ebc71c05c5fd"),
    (_kr("C3", 3, 3, "--x=-3/4", "--height", "2", "--format", "json"), 0, "d92d60a4712ec8db"),
    (_kr("E6", 1, 2, "--x", "2/5", "--format", "json"), 0, "76f9634cad613eb2"),
    (_kr("D4", 1, 2, "--x", "7/2"), 0, "a0ea177b18eb77bb"),
    (_kr("D4", 1, 2, "--format", "json"), 0, "b08c305e4837a05e"),
    (_kr("D4", 1, 2, "--x", "7/2", "--format", "json"), 0, "d42ab4585b3c6250"),
    # One grammar for every numeric text: rank-one parameters with negative
    # and large-denominator values, a k typed with a leading space, a
    # rational x, a large TQ k, and two k that are not integers (exit 2).
    (("rep-check", "qchar", "--kind", "truncated", "--k=37/6", "--x=-3/4", "--M", "6",
      "--format", "json"), 0, "8ade72e576797f7c"),
    (("rep-check", "relations", "--kind", "finite", "--k=3", "--x=-9/2", "--modes", "1",
      "--format", "json"), 0, "9f7690a5d63e5f2e"),
    (("rep-check", "three-term", "--x=7/2", "--y=-1/3", "--M", "8", "--height", "3"), 0,
     "ed1ee770f4d845c6"),
    (_kr("B2", 1, " 2", "--x=-1/2"), 0, "cc7382f28eebf20f"),
    (("qchar", "demazure", "--type", "A2", "--node", "1", "--k", "2", "--t", "1", "--x", "1/3",
      "--format", "json"), 0, "614256d161a6a6c4"),
    (_v("tq", "A2", 1, "--k=12", "--height", "3", "--format", "json"), 0, "d9bae93838b47133"),
    (_v("tq", "A2", 1, "--k=nan"), 2, "2350105db424bec7"),
    (("qchar", "demazure", "--type", "A2", "--node", "1", "--k", "1/2"), 2, "a49f7c92b1dad37b"),
    # The factorization check, the one verify kind no entry above runs.
    (_v("factorization", "B2", 2, "--k", "3"), 0, "c08c5b7647e47ed9"),
    (_v("factorization", "G2", 1, "--k", "2", "--x", "1/2", "--format", "json"), 0,
     "6ec73cafd71b0804"),
    (_v("factorization", "C3", 2, "--k", "2", "--x", "x"), 0, "0254ba5eaaa1f2c0"),
    # Rank-one modules at the edges of their integer arithmetic: dimension 1
    # with a unit top, seven Cartan modes over a large prime denominator, a
    # huge k, and three-term checks at the smallest M and at height 0.
    (("rep-check", "qchar", "--kind", "finite", "--k", "0", "--x", "5/2"), 0,
     "43b6c5cb29cbcd60"),
    (("rep-check", "qchar", "--kind", "finite", "--k", "7", "--x=1/1000000007", "--modes", "6"),
     0, "4f4122dcdc43e929"),
    (("rep-check", "qchar", "--kind", "truncated", "--k=-10000000000000000000001/7", "--x=2/3",
      "--M", "12", "--format", "json"), 0, "d0b2daac3a6bf810"),
    (("rep-check", "three-term", "--x=1/3", "--y=-2/5", "--M", "3", "--height", "1"), 0,
     "ec9ce5d8f77baceb"),
    (("rep-check", "three-term", "--x", "0", "--y", "0", "--M", "5", "--height", "0"), 0,
     "8d06800a392b9770"),
    # Every identity kind through one suite file, and the order in which a
    # verify reads its fields: x before k, and x before a.
    (("verify", "suite", SUITE), 0, "d6a1b0f206dc3741"),
    (("verify", "suite", SUITE, "--format", "json"), 0, "9214745c6a19b3e6"),
    (_v("tq", "A2", 1, "--k", "1/2", "--x", "1//2"), 2, "477f906f7321b5be"),
    (_v("two-term", "A1", 1, "--a", "1//2", "--x", "2//3"), 2, "96026b5cc09242b0"),
    # Argv that argparse itself refuses or answers: unknown flags and extra
    # words (the top parser's "unrecognized arguments"), "--" before a word
    # or a leaf name, abbreviated flags, help before an unknown flag, the
    # empty argv, a suite without its file, and a negative value written
    # as a separate word (it reads as a flag).  Help and usage text wrap at
    # COLUMNS, which the test pins to 80.
    (("qchar", "kr", "--type", "A2", "--node", "1", "--bogus", "1"), 2, "0ccff3223a87eb43"),
    (_v("tq", "A2", 1, "--height", "2", "extra"), 2, "c59f1d9708b5ee97"),
    (("qchar", "kr", "--type=A2", "--node=1", "--", "extra"), 2, "e1feb16fab7e307b"),
    (("qchar", "kr", "--ty", "A2", "--no", "1"), 0, "c5b392139c1de85f"),
    (("verify", "tq", "--help"), 0, "37e5989ee4bdc838"),
    (("qchar", "kr", "--type", "A2", "--node", "1", "-h", "--bogus"), 0, "44b1689eaa707787"),
    (("verify", "--", "tq", "--type", "A2", "--node", "1", "--height", "2"), 2,
     "2ab6f208e07bcfb7"),
    ((), 2, "36a56c5f4608496b"),
    (("verify", "suite"), 2, "bee29be75257829c"),
    (("qchar", "kr", "--x", "-3/2", "--type", "A2", "--node", "1"), 2, "580dbdc95ec73b25"),
    # A truncated tower whose top is the unit (k = 0), a finite module at a
    # negative rational x, and a Demazure weight of four roots at symbolic x.
    (("rep-check", "qchar", "--kind", "truncated", "--k", "0", "--x=-1/2", "--M", "4",
      "--format", "json"), 0, "df87880b722d0461"),
    (("rep-check", "qchar", "--kind", "finite", "--k", "1", "--x=-7/3"), 0, "157255ac1e951280"),
    (_v("factorization", "G2", 1, "--k", "4", "--x", "x", "--format", "json"), 0,
     "a7c0ce45e708f270"),
    # Two bad fields in each leaf that had no usage error pinned, so the
    # message names the field read first: --type before any coordinate, k
    # and y before x (x before y in rep-check three-term), k before the M
    # check, and a missing --monomial before --type.
    (("qchar", "asymptotic", "--type", "A2", "--node", "1", "--y", "1//2", "--x", "1//3"), 2,
     "477f906f7321b5be"),
    (("qchar", "demazure", "--type", "A2", "--node", "1", "--k", "1//2", "--x", "1//3"), 2,
     "477f906f7321b5be"),
    (("qchar", "m", "--type", "A2", "--node", "1", "--k", "1//2", "--x", "1//3"), 2,
     "477f906f7321b5be"),
    (("qchar", "prefundamental", "--type", "Z9", "--node", "1", "--x", "1//3"), 2,
     "24e715aa1cbd4a12"),
    (("qchar", "n", "--type", "Z9", "--node", "1", "--k", "1//2"), 2, "24e715aa1cbd4a12"),
    (("rep-check", "qchar", "--k", "1//2", "--x", "1//3"), 2, "477f906f7321b5be"),
    (("rep-check", "relations", "--kind", "truncated", "--k", "1//2", "--x", "1//3",
      "--M", "2"), 2, "477f906f7321b5be"),
    (("rep-check", "three-term", "--x", "1//2", "--y", "1//3"), 2, "477f906f7321b5be"),
    (("translate", "--to", "multiplicative", "--type", "Z9"), 2, "b1fcbc59123ada38"),
    (("translate", "--to", "multiplicative", "--type", "Z9", "--monomial", "Psi[1,0]"), 2,
     "24e715aa1cbd4a12"),
    # The SES kernel at depth: route R2 of verify tq at N = 5-6 in G2, F4 and
    # E6, and bounded Demazure characters at t = 0-2, one at symbolic x.
    (_v("tq", "G2", 1, "--height", "5", "--format", "json"), 0, "ade0e1e501d5c30d"),
    (_v("tq", "F4", 2, "--height", "6", "--format", "json"), 0, "531abbdcb6ca34bf"),
    (_v("tq", "E6", 4, "--height", "6", "--format", "json"), 0, "f64395408127c4e6"),
    (_v("tq", "A2", 1, "--k", "12", "--height", "3", "--x=0"), 0, "a6fccae285296b52"),
    (_dz("B2", 1, 2, 0, 3, "--format", "json"), 0, "6c333f51a60f13ec"),
    (_dz("B2", 2, 3, 1, 2, "--format", "json"), 0, "15441ff1a99fdb97"),
    (_dz("B2", 1, 2, 2, 3, "--x", "x", "--format", "json"), 0, "32c77e48a1976b25"),
    (_dz("G2", 1, 2, 0, 2, "--format", "json"), 0, "212b38bcb0d953e3"),
    (_dz("G2", 2, 2, 1, 3, "--format", "json"), 0, "848d98c75e359190"),
    (_dz("G2", 1, 3, 2, 3, "--x", "1/3", "--format", "json"), 0, "736da479e9290e0e"),
    (_dz("C3", 2, 2, 0, 3, "--format", "json"), 0, "5266c174acc7dce5"),
    (_dz("C3", 3, 1, 1, 3, "--format", "json"), 0, "e533a7a5a325d93c"),
    (_dz("C3", 1, 3, 2, 2, "--x=-1/2", "--format", "json"), 0, "eab48a6543ba658d"),
    # Printed coordinates: a huge negative numerator over 6, a negative residue
    # beside a symbol (text), a residue of 1/4 (text), a negative fractional
    # symbolic coefficient after a rational part, and the Phi head's q^.
    (_kr("G2", 1, 3, "--x=-1000000000000000000001/6", "--format", "json"), 0,
     "c0302da39f357a04"),
    (_kr("B3", 3, 2, "--x=x-7/3"), 0, "d989f4c5298822a5"),
    (_kr("C3", 1, 2, "--x=5/4", "--height", "3"), 0, "9c2aa7f58e2fc974"),
    (("qchar", "prefundamental", "--type", "B2", "--node", "2", "--sign", "-",
      "--x=-2x/3+1/5", "--height", "2", "--format", "json"), 0, "5b3e87bde2732c1b"),
    (("translate", "--to", "multiplicative", "--type", "B2", "--monomial",
      "Psi[1,-7/6+x]^2"), 0, "af0514937e0709a2"),
    # Rank-one extraction at its refusals and edges: the term budget of a huge
    # truncated tower, alone and inside a three-term check, a negative mode
    # bound, too small an M, a finite module at a non-integer k, one Cartan
    # mode in JSON, and the smallest truncated tower at a rational x.
    (("rep-check", "qchar", "--kind", "truncated", "--k", "1/3", "--M", "100000000000"), 3,
     "28b0bdf84d7ab4fa"),
    (("rep-check", "three-term", "--x", "2", "--M", "100000000000"), 3, "848e226aeeacd97f"),
    (("rep-check", "qchar", "--modes=-1"), 2, "543315535a54a06c"),
    (("rep-check", "qchar", "--kind", "truncated", "--k=7/3", "--M", "2"), 2,
     "f323a5cf7ec6242f"),
    (("rep-check", "qchar", "--kind", "finite", "--k=7/3"), 2, "567607af70d9fea0"),
    (("rep-check", "qchar", "--kind", "finite", "--k", "2", "--modes", "0", "--format", "json"),
     0, "4d219ca3a5616576"),
    (("rep-check", "qchar", "--kind", "truncated", "--k=7/3", "--x=1/2", "--M", "3"), 0,
     "f4236deaf850ac1f"),
    # A k far beyond the default term budget, refused before its k-long kernel
    # top, Demazure roots or m-weight Y-string is built.
    (("qchar", "demazure", "--type", "A1", "--node", "1", "--k", "100000000", "--t", "0"), 3,
     "7a68967c16b5f1fb"),
    (_v("factorization", "A2", 1, "--k", "100000000"), 3, "e81ca227e88c8ac7"),
    (_v("factorization", "A2", 1, "--k", "2000000"), 3, "5b8cb9a9d6b536b8"),
    (_v("tsystem", "A2", 1, "--k", "100000000"), 3, "7a68967c16b5f1fb"),
    (_v("demazure-support", "A2", 1, "--k", "100000000", "--height", "2"), 3,
     "7a68967c16b5f1fb"),
    (_v("tq", "A2", 1, "--k", "100000000", "--height", "2"), 3, "2c3da32bcfa0f2e6"),
    (_v("m-support", "A2", 1, "--k", "100000000", "--height", "2"), 3, "2c3da32bcfa0f2e6"),
    # The relation checker at a high mode bound over a large prime denominator,
    # where the band entries grow to hundreds of bits.
    (("rep-check", "relations", "--kind", "finite", "--k", "4", "--x=1/1000000007",
      "--modes", "12", "--format", "json"), 0, "d7203694fffe5104"),
    # The largest complete KR characters of the benchmark, each expanded cold at
    # a fractional x, then B3 n3 k5 again at a second x: a translate of the first.
    (_kr("B4", 4, 3, "--x=7/3", "--format", "json"), 0, "c2d6719795c42cef"),
    (_kr("B3", 3, 5, "--x=-5/4", "--format", "json"), 0, "14b4df07f59e1a91"),
    (_kr("C3", 3, 3, "--x=2/5", "--format", "json"), 0, "afffc4c55ef5b0df"),
    (_kr("B3", 3, 5, "--x=31/6", "--format", "json"), 0, "bc3bce0a18279867"),
    # Route R2's kernel string of k + 2 factors is one over the default budget:
    # refused before route R1 expands the 10^6-factor m-weight.
    (_v("tq", "A2", 1, "--k", "999999", "--height", "2"), 3, "218b918fffc8eb73"),
    # k-site i-chains at the edge of the budget: a kernel whose first node-sl2
    # string has about k^2/2 chains, refused before its KR tops are built, and a
    # Demazure weight of 10^5 roots.
    (_dz("A1", 1, 999999, 0, 1), 3, "2bf411b727da778a"),
    (_v("factorization", "A2", 1, "--k", "100000"), 0, "da42d8597905a3bc"),
    # Refusals that the parameters alone decide: route R2's first node-sl2
    # string of k(k+1)/2 chains, the kernel's in a support scan, and a KR
    # string one factor over the budget.
    (_v("tq", "A2", 1, "--k", "500000", "--height", "2"), 3, "3f5404b825184b13"),
    (_v("demazure-support", "A2", 1, "--k", "2000", "--height", "2"), 3, "c4c0fa63248fed29"),
    (_v("kr-skeleton", "A2", 1, "--k", "1000001"), 3, "218b918fffc8eb73"),
    # The SES route's fourth KR top, W_{k+t+1}, meets a node-sl2 string of
    # length 1414, whose 1,000,405 chains exceed the default budget, while the
    # first three tops' strings fit: in a Demazure character, a T-system
    # check, a support scan and route R2 of a TQ check.
    (_dz("A1", 1, 1413, 0, 1), 3, "4679b77cbf951ed7"),
    (_v("tsystem", "A1", 1, "--k", "1413", "--t", "0"), 3, "4679b77cbf951ed7"),
    (_v("demazure-support", "A1", 1, "--k", "1413", "--height", "1"), 3, "4679b77cbf951ed7"),
    (_v("tq", "A1", 1, "--k", "1413", "--height", "1"), 3, "4679b77cbf951ed7"),
    # A value flag given as --f=--, which argparse reads as no value at all.
    (("qchar", "kr", "--type", "A2", "--node", "1", "--x=--"), 2, "d668047e1aaaf866"),
    (("rep-check", "relations", "--modes=--"), 2, "9ac264413626fca8"),
    (("qchar", "kr", "--type", "A2", "--node", "1", "--format=--"), 2, "02982ceda5d37698"),
    (_v("tq", "A2", 1, "--height=--"), 2, "e461bb6bfe7d62a4"),
    # Plain rationals as typed: leading zeros, -0 and an unreduced fraction
    # (warm translates of one anchor), a half-integer in text, a zero
    # denominator, more digits than int() reads from text, a zero-padded k,
    # and -0 in a TQ check.
    (_kr("A4", 1, 3, "--format", "json", "--x=007"), 0, "55a891a4abe9d35c"),
    (_kr("A4", 1, 3, "--format", "json", "--x=-0"), 0, "a2a000cc19a38a72"),
    (_kr("A4", 1, 3, "--format", "json", "--x=6/4"), 0, "eabf3af4bbfce082"),
    (_kr("A4", 1, 3, "--x=-7/2"), 0, "393963ed2ef92f40"),
    (_kr("B2", 2, 2, "--x=1/0"), 2, "89ce837b09e51f4e"),
    (("qchar", "kr", "--type", "A2", "--node", "1", "--x=" + "7" * 4301), 2,
     "0ac7fe1b518df555"),
    (("rep-check", "relations", "--kind", "finite", "--k=04", "--x=-9/6"), 0,
     "09637a5902470d13"),
    (_v("tq", "B2", 2, "--k", "6", "--height", "3", "--x=-0", "--format", "json"), 0,
     "1fd5c3d80030f11b"),
    # A KR string of 999,999 sites whose first node-sl2 string has about 5 * 10^11
    # chains: in a KR character, a skeleton check, and the stabilized characters
    # and two-term check at that height; then a bad node, read before k.
    (_kr("A1", 1, 999999), 3, "2bf411b727da778a"),
    (_v("kr-skeleton", "A1", 1, "--k", "999999"), 3, "2bf411b727da778a"),
    (("qchar", "asymptotic", "--type", "A2", "--node", "1", "--height", "999999"), 3,
     "2bf411b727da778a"),
    (("qchar", "prefundamental", "--type", "A1", "--node", "1", "--height", "999999"), 3,
     "2bf411b727da778a"),
    (_v("two-term", "A1", 1, "--height", "999999"), 3, "2bf411b727da778a"),
    (_kr("A1", 0, 999999), 2, "9615676236dae548"),
    # A monomial node or exponent of more digits than int() reads from text.
    (("translate", "--to", "multiplicative", "--monomial", "Psi[1,0]^" + "9" * 5000), 2,
     "db24beea79cb184f"),
    (("translate", "--to", "multiplicative", "--monomial", f"Psi[{'9' * 5000},0]"), 2,
     "3f5849000519c0a1"),
    # JSON rows whose factors escape a non-ASCII symbol, then a translate of the
    # same anchor; a unit-only ledger, truncated and complete; a symbolic asymptotic.
    (_kr("A1", 1, 2, "--x=ξ+1/3", "--format", "json"), 0, "27e07fb6aba3533e"),
    (_kr("A1", 1, 2, "--x=ξ+4/3", "--format", "json"), 0, "9eb43b2a40641870"),
    (_kr("A2", 1, 2, "--height", "0", "--format", "json"), 0, "c29052c5f76bb2aa"),
    (_kr("A2", 1, 0, "--format", "json"), 0, "fe1e3b0e148e7a9d"),
    (("qchar", "asymptotic", "--type", "A1", "--node", "1", "--y=η", "--x=ξ",
      "--height", "1", "--format", "json"), 0, "bd990cf146cf22e2"),
]


def run_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(list(argv), out, err)
    blob = f"{out.getvalue()}\0{err.getvalue()}".encode()
    return code, hashlib.sha256(blob).hexdigest()[:16]


def test_golden_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    diff = []
    for argv, code, digest in GOLDEN:
        got = run_digest(argv)
        if got != (code, digest):
            diff.append((" ".join(argv), (code, digest), got))
    assert not diff, diff


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for argv, _, _ in GOLDEN:
        code, dg = run_digest(argv)
        print(f"{code} {dg}  {' '.join(argv)}")
