"""Hand-derived Ito-minus-Stratonovich shifts, kept as references.

The library converts every integral through one exact rule
(:func:`stochint.expansion._conversion_terms`).  This module keeps the five
forms that rule replaced, each derived by hand for one case:

* :func:`pair_shift`: any weight pair, ``-(1/2) int_t^T (t-s)^(l1+l2) ds`` at
  equal components;
* :func:`triple_shift`: the unweighted triple, from exact single integrals;
* :func:`quadruple_shift`: the unweighted quadruple, from truncated pair
  series at order ``q``;
* :func:`hermite_ito`: the Ito value of the all-equal triple and quadruple
  with weight ``l``, from the exact single integral ``I``.
"""

from __future__ import annotations

from stochint.expansion import IndexPattern, legendre_closed_single, legendre_double_series


def pair_shift(components, weights, dt: float) -> float:
    if components[0] != components[1]:
        return 0.0
    total = sum(weights)
    return -0.5 * (-1.0) ** total * dt ** (total + 1) / (total + 1)


def triple_shift(components, draws, dt: float):
    c = components
    shift = 0.0
    if c[0] == c[1]:
        shift = shift + legendre_closed_single(1, c[2], draws, dt) / 2.0
    if c[1] == c[2]:
        i0 = legendre_closed_single(0, c[0], draws, dt)
        i1 = legendre_closed_single(1, c[0], draws, dt)
        shift = shift - (dt * i0 + i1) / 2.0
    return shift


def quadruple_shift(components, draws, q: int, dt: float):
    c = components

    def pair(weights, comps):
        return legendre_double_series(weights, IndexPattern(comps), draws, q, dt, "strat")

    shift = 0.0
    if c[0] == c[1]:
        shift = shift + 0.5 * pair((1, 0), (c[2], c[3]))
    if c[1] == c[2]:
        shift = shift - 0.5 * (pair((1, 0), (c[0], c[3])) - pair((0, 1), (c[0], c[3])))
    if c[2] == c[3]:
        shift = shift - 0.5 * (dt * pair((0, 0), (c[0], c[1])) + pair((0, 1), (c[0], c[1])))
    if c[0] == c[1] and c[2] == c[3]:
        shift = shift + dt * dt / 8.0
    return shift


def hermite_ito(k: int, l: int, i1: int, draws, dt: float):
    single = legendre_closed_single(l, i1, draws, dt)
    delta = dt ** (2 * l + 1) / (2 * l + 1)
    if k == 3:
        return (single**3 - 3.0 * single * delta) / 6.0
    return (single**4 - 6.0 * single**2 * delta + 3.0 * delta**2) / 24.0
