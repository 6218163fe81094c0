"""Pins on every census output of the census-growth grid.

Each entry is the first 16 hex digits of a sha256 over the reprs of one
census's outputs, in order, on the first three fields (d = -2, -5, -6, ...)
in which the level's prime has the given splitting.  Lists are hashed
whole, so a change of order fails as surely as a change of value.  The
digests were recorded from the tuple-based censuses that the integer-coded
kernel replaced; the coded SL2 listing is hashed decoded, one tuple of
`elements()` per matrix, as those censuses listed it.
"""

from collections import namedtuple
from hashlib import sha256

import pytest

from bianchi_lefschetz.exactmath import InputError
from bianchi_lefschetz.finitering import (FiniteRing, cusp_count_bruteforce,
                                          enumerate_sl2, fixed_coset_report,
                                          projective_line, sl2_order)
from bianchi_lefschetz.quadfield import make_field, splitting_type

BOTH = ("split", "inert")
GRID = (
    ("projective_line", (3, 4, 5, 7, 8, 9, 11), BOTH),
    ("enumerate_sl2", (3, 4), BOTH),
    ("enumerate_sl2", (5, 7), ("inert",)),
    ("sl2_order", (3, 4, 5, 7, 8, 9), BOTH),
    ("coset_sigma", (3, 5, 7, 9, 11, 13, 25, 27, 49), BOTH),
    ("coset_tau", (3, 5, 7, 9, 11, 13, 25, 27, 49), BOTH),
    ("cusp_count", (3, 4, 5, 7, 8, 9), BOTH),
)
CASES = [(kind, N, spl) for kind, levels, spls in GRID for N in levels for spl in spls]

PINS = {
    ('projective_line', 3, 'split'): '767bc609630b2d30',
    ('projective_line', 3, 'inert'): '5fed1e3f098d8abf',
    ('projective_line', 4, 'split'): '90305cd59f985233',
    ('projective_line', 4, 'inert'): 'fd2efede262f9479',
    ('projective_line', 5, 'split'): 'ab947f52e39d8ca1',
    ('projective_line', 5, 'inert'): '5bce1b3db16ab3bf',
    ('projective_line', 7, 'split'): '3d8c187251ddb41e',
    ('projective_line', 7, 'inert'): '4ef19ec193958e89',
    ('projective_line', 8, 'split'): 'b8a6bc7f88732e41',
    ('projective_line', 8, 'inert'): '489320ccddd52ace',
    ('projective_line', 9, 'split'): 'f49ee4db6593f3a2',
    ('projective_line', 9, 'inert'): '24d8c084ad8ff4d1',
    ('projective_line', 11, 'split'): '9b790d61fcc7d949',
    ('projective_line', 11, 'inert'): '10784e2da055fc97',
    ('enumerate_sl2', 3, 'split'): '5cc4681e5fb9c543',
    ('enumerate_sl2', 3, 'inert'): '1ac69313b4d05d5c',
    ('enumerate_sl2', 4, 'split'): 'e49698a3af4a1dd4',
    ('enumerate_sl2', 4, 'inert'): '38d5a8bbc5f5e04d',
    ('enumerate_sl2', 5, 'inert'): '220b06e0f39254d6',
    ('enumerate_sl2', 7, 'inert'): '5c1c648898483145',
    ('sl2_order', 3, 'split'): '7cf47f4aa1028828',
    ('sl2_order', 3, 'inert'): 'c9913a50a1a105de',
    ('sl2_order', 4, 'split'): '2e85dd1dd300f74e',
    ('sl2_order', 4, 'inert'): '9c34b8d3bc7eda21',
    ('sl2_order', 5, 'split'): 'a83dbd56beca60f0',
    ('sl2_order', 5, 'inert'): 'd2ce875461179f87',
    ('sl2_order', 7, 'split'): '3504d6724be598a2',
    ('sl2_order', 7, 'inert'): '5144eaf6b2c3340c',
    ('sl2_order', 8, 'split'): '4ec9f0b9dca44d04',
    ('sl2_order', 8, 'inert'): '8cd30fa244de6c8e',
    ('sl2_order', 9, 'split'): '1fa47135b4eff081',
    ('sl2_order', 9, 'inert'): '2053416a2e8627cf',
    ('coset_sigma', 3, 'split'): '6633d608ee3225c9',
    ('coset_sigma', 3, 'inert'): 'a23ec18baadbfced',
    ('coset_sigma', 5, 'split'): 'ab30b6e5b3052615',
    ('coset_sigma', 5, 'inert'): '7ae865e4c4660ab9',
    ('coset_sigma', 7, 'split'): '62e9694c6e8f8d25',
    ('coset_sigma', 7, 'inert'): 'bc25adf52b8727f7',
    ('coset_sigma', 9, 'split'): 'ebb3d8e8dfba526f',
    ('coset_sigma', 9, 'inert'): 'fe94c32d0874ea59',
    ('coset_sigma', 11, 'split'): 'ce3bdaf53848cda2',
    ('coset_sigma', 11, 'inert'): '6fc31c9e6f203c22',
    ('coset_sigma', 13, 'split'): '8a6094bdfd407c3f',
    ('coset_sigma', 13, 'inert'): '8f9934e9c9566feb',
    ('coset_sigma', 25, 'split'): '1290f6a2fb30ec7a',
    ('coset_sigma', 25, 'inert'): 'c26b6ff096aee272',
    ('coset_sigma', 27, 'split'): '30141f8614fbb0d0',
    ('coset_sigma', 27, 'inert'): '88bbec8a6af573fb',
    ('coset_sigma', 49, 'split'): '924b90d35417efff',
    ('coset_sigma', 49, 'inert'): '492ab80e054d9077',
    ('coset_tau', 3, 'split'): '7e1bb2e53a6cd395',
    ('coset_tau', 3, 'inert'): '4efbc0335b4f676e',
    ('coset_tau', 5, 'split'): '209ab22026677d55',
    ('coset_tau', 5, 'inert'): 'a3ba9c506c37daf1',
    ('coset_tau', 7, 'split'): '2ea3e5123be4332e',
    ('coset_tau', 7, 'inert'): '456b4c7901ac7d16',
    ('coset_tau', 9, 'split'): '42a08f721993c28e',
    ('coset_tau', 9, 'inert'): 'fe25cf0e688a6445',
    ('coset_tau', 11, 'split'): '1cefc70b46ae022c',
    ('coset_tau', 11, 'inert'): '9daa2819e475c041',
    ('coset_tau', 13, 'split'): '56bdeb77865c7ca5',
    ('coset_tau', 13, 'inert'): 'cccf6e2e40ef3029',
    ('coset_tau', 25, 'split'): '4f4f6c7c6fdf7160',
    ('coset_tau', 25, 'inert'): '4239a9f330c67b9f',
    ('coset_tau', 27, 'split'): '9c603c72e5216fd5',
    ('coset_tau', 27, 'inert'): '7ee4e22dca6ceffb',
    ('coset_tau', 49, 'split'): '4ccec227fd715aa6',
    ('coset_tau', 49, 'inert'): 'cfb456a9e6377c4d',
    ('cusp_count', 3, 'split'): '735d03164e7d5fd8',
    ('cusp_count', 3, 'inert'): 'c8154b097e81a090',
    ('cusp_count', 4, 'split'): 'd2167cd65f178c97',
    ('cusp_count', 4, 'inert'): '735ddafcbc11a0bc',
    ('cusp_count', 5, 'split'): '16a0d34696c64947',
    ('cusp_count', 5, 'inert'): 'cc804c2140a20d26',
    ('cusp_count', 7, 'split'): '13f2e6c9c206a75d',
    ('cusp_count', 7, 'inert'): '2324e64b86349985',
    ('cusp_count', 8, 'split'): 'a4611536a1312c25',
    ('cusp_count', 8, 'inert'): '9b1f920fccdcb761',
    ('cusp_count', 9, 'split'): '2338107664c9792a',
    ('cusp_count', 9, 'inert'): '202b1ce1a558ed75',
}


def _fields(p, spl):
    found = []
    for d in range(-2, -200, -1):
        try:
            field = make_field(d)
        except InputError:
            continue
        if splitting_type(field, p) == spl:
            found.append(field)
            if len(found) == 3:
                return found
    raise AssertionError(f"fewer than three {spl} fields at p={p}")


# The coset digests were recorded when the report also echoed its inputs;
# this record of the same name restores them, so its repr is the one hashed.
_EchoedReport = namedtuple("CensusReport",
                           "d p n involution census closed_formula matches")


def _census(kind, field, N):
    if kind == "cusp_count":
        return cusp_count_bruteforce(field, N)
    ring = FiniteRing(field, N)
    if kind == "projective_line":
        return projective_line(ring)
    if kind == "enumerate_sl2":
        return [ring.matrix(code) for code in enumerate_sl2(ring)]
    if kind == "sl2_order":
        return sl2_order(ring)
    involution = kind.split("_")[1]
    (p, n, _, _), = ring.primes
    return _EchoedReport(field.d, p, n, involution, *fixed_coset_report(ring, involution))


def census_digest(kind, N, spl):
    p = next(q for q in range(2, N + 1) if N % q == 0)
    h = sha256()
    for field in _fields(p, spl):
        h.update(repr(_census(kind, field, N)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind,N,spl", CASES)
def test_census_output_is_pinned(kind, N, spl):
    assert census_digest(kind, N, spl) == PINS[kind, N, spl]


def test_pins_cover_the_grid():
    assert sorted(PINS) == sorted(CASES) and len(CASES) == 80
