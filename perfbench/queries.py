"""The CLI query pool and the seeded decks drawn from it.

A deck holds one query from each slot below, in a seeded order, so every
deck has the same mix: six ordinary queries, one table, one expected
input error (exit 1) and two queries with |d| just under 10^7.  Those two
split between `field`, which prints h and so pays for the O(|D|)
reduced-form enumeration, and subcommands that never read h.  All large d
are 1 mod 4, so D = d and the enumeration costs the same for each.
Sczech queries use the json format only, so their floats can be compared
by tolerance (see check.py), and all use N=4, the largest operator of the
pool, so every deck reaches the same peak RSS; the other slots cover all
three formats.
"""

from __future__ import annotations

import random

_BIG_D = (-9999991, -9999971, -9999967, -9999959, -9999947, -9999943)

SLOTS: dict[str, list[str]] = {
    "field": [
        "field --d -2",
        "field --d -5 --format csv",
        "field --d -7 --format tex",
        "field --d -11",
        "field --d -23 --format csv",
        "field --d -30",
        "field --d -163 --format tex",
    ],
    "lefschetz": [
        "lefschetz principal --d -7 --N 3 --k 0",
        "lefschetz principal --d -2 --N 5 --k 0",
        "lefschetz principal --d -2 --N 9 --k 3 --format csv",
        "lefschetz principal --d -7 --N 15 --k 0",
        "lefschetz principal --d -11 --N 25 --k 2 --format tex",
        "lefschetz level-one --d -2 --k 0 --involution tau",
        "lefschetz level-one --d -5 --k 3 --involution tau --bracket rational",
        "lefschetz level-one --d -2 --k 1 --involution sigma --bracket kronecker --format csv",
        "lefschetz level-one --d -7 --k 12 --involution sigma",
        "lefschetz level-one --d -11 --k 6 --involution tau --format tex",
    ],
    "eisenstein": [
        "eisenstein h2 --d -7 --N 9 --k 1 --involution sigma",
        "eisenstein h2 --d -7 --N 9 --k 1 --involution tau",
        "eisenstein h2 --d -2 --N 5 --k 0 --involution sigma --format csv",
        "eisenstein h2 --d -5 --N 3 --k 2 --involution tau --format tex",
        "eisenstein h1 --d -2 --p 5 --n 1",
        "eisenstein h1 --d -7 --p 3 --n 1 --format csv",
        "eisenstein h1 --d -2 --p 5 --n 2",
        "eisenstein h1 --d -11 --p 7 --n 1 --format tex",
    ],
    "bound": [
        "bound --d -2 --N 5 --k 0",
        "bound --d -2 --N 25 --k 0 --format tex",
        "bound --d -7 --N 4 --k 0",
        "bound --d -2 --N 7 --k 2 --format csv",
        "bound --d -5 --N 3 --k 0",
        "bound --d -11 --N 9 --k 1 --format tex",
        "bound --d -2 --N 125 --k 0",
    ],
    "gl2": [
        "gl2 --d -2 --k 24",
        "gl2 --d -7 --k 3",
        "gl2 --d -11 --k 24 --bracket rational --format csv",
        "gl2 --d -5 --k 0",
        "gl2 --d -19 --k 10 --format tex",
    ],
    "sczech": [
        "sczech --d -2 --N 4",
        "sczech --d -7 --N 4",
        "sczech --d -5 --N 4",
        "sczech --d -11 --N 4 --variant inverse-different",
        "sczech --d -19 --N 4 --variant inverse-different",
    ],
    "table": [
        "table --d-list -2 -7 -11 -19 --N-list 3 5 7 9 11 13 --k-list 0 1 2 3 4 5 6 7 --format csv",
        "table --d-list -2 -5 -7 --N-list 4 5 25 --k-list 0 2 --format tex",
        "table --d-list -2 -7 -11 --N-list 3 5 7 9 --k-list 0 1 2 3 4 5",
        "table --d-list -2 -5 -6 -7 -10 -11 -13 -14 --N-list 3 5 7 9 11 --k-list 0 2 4 6 8",
    ],
    "error": [
        "field --d -3",
        "field --d -12 --format csv",
        "gl2 --d -18 --k 2",
        "lefschetz principal --d -2 --N 2 --k 0",
        "eisenstein h2 --d -2 --N 4 --k 0 --involution sigma",
        "eisenstein h2 --d -7 --N 7 --k 0 --involution sigma",
        "eisenstein h1 --d -5 --p 3 --n 1",
        "sczech --d -2 --N 1",
    ],
    "big-field": [
        f"field --d {d}" + fmt
        for d, fmt in zip(_BIG_D, ("", " --format csv", " --format tex", "", "", " --format csv"))
    ],
    "big-other": [
        f"lefschetz level-one --d {_BIG_D[0]} --k 0 --involution sigma",
        f"gl2 --d {_BIG_D[1]} --k 2 --format csv",
        f"eisenstein h2 --d {_BIG_D[2]} --N 11 --k 0 --involution sigma",
        f"lefschetz principal --d {_BIG_D[3]} --N 11 --k 0 --format tex",
        f"eisenstein h2 --d {_BIG_D[4]} --N 7 --k 2 --involution tau",
        f"gl2 --d {_BIG_D[5]} --k 24",
    ],
}

POOL: list[str] = [q for slot in SLOTS.values() for q in slot]


def decks(seed: int):
    """Yield decks (lists of query strings) forever, reproducibly from `seed`."""
    rng = random.Random(seed)
    while True:
        deck = [rng.choice(slot) for slot in SLOTS.values()]
        rng.shuffle(deck)
        yield deck
