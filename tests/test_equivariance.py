"""Equivariance of the boundary map over random automorphisms.

The limits ``omega_limit`` certifies are checked against identities of
the boundary map that share neither the cancellation bound C of the map
iterated nor the held cap with the engine:

- conjugation: the limit of ``psi phi psi^-1`` at ``psi(g)`` is the image
  under ``psi`` of the limit of ``phi`` at ``g``;
- a fixed element of ``phi`` maps to a fixed element of the conjugate;
- a rational limit of ``phi`` is fixed by the inverse of ``phi`` too;
- ``phi(g)`` has the limit of ``g``.

Rational limits are compared exactly.  A certified prefix P maps to the
first ``|[psi(P)]| - C(psi)`` letters of ``[psi(P)]``, a prefix of the
image of every boundary point that starts with P; two prefixes agree on
the letters both have.  Budgets count letters, and conjugation changes
lengths, so a triple where only one side certifies is counted, not
failed.

The draw has ``FGDYN_EQUIVARIANCE_TRIPLES`` triples (120 by default).
"""

import os
import random
from collections import Counter

from fgdyn import dynamics
from fgdyn.automorphisms import cancellation_bound, conjugate
from fgdyn.dynamics import Boundary, FixedElement, Rational, apply_rational, omega_limit, prefix_of
from fgdyn.words import reduce, standard_alphabet
from random_maps import random_pair

TRIPLES = int(os.environ.get("FGDYN_EQUIVARIANCE_TRIPLES", "120"))


def draw(rng):
    """A triple (phi, psi, g) on F2-F4: phi of 2-6 Nielsen moves, psi of
    1-3, and g a nontrivial reduced word of 1-5 letters."""
    alphabet = standard_alphabet(rng.randint(2, 4))
    phi = random_pair(rng, alphabet, rng.randint(2, 6))
    psi = random_pair(rng, alphabet, rng.randint(1, 3))
    while True:
        g = reduce(alphabet, [rng.choice(alphabet.signed_letters) for _ in range(rng.randint(1, 5))])
        if not g.is_identity():
            return phi, psi, g


def limit_of(result, psi=None):
    """A certified limit, or its image under ``psi``: ``("exact", X)``
    for a rational point X, or ``("prefix", Q)`` with Q a prefix of the
    point.  The image of a certified prefix P is the first ``|[psi(P)]| -
    C(psi)`` letters of ``[psi(P)]``, a prefix of the image of every
    point that starts with P."""
    if isinstance(result.point, Rational):
        point = result.point.point
        return "exact", point if psi is None else apply_rational(psi.forward, point)
    prefix = result.point.prefix
    if psi is None:
        return "prefix", prefix
    image = psi.forward.apply(prefix)
    return "prefix", image.prefix(max(0, len(image) - cancellation_bound(psi.forward)))


def first(limit, n):
    """The first ``n`` letters of a limit given by :func:`limit_of`."""
    kind, x = limit
    return prefix_of(x, n) if kind == "exact" else x.prefix(n)


def agree(a, b):
    """Whether two limits given by :func:`limit_of` can be one point:
    equal rational points, or prefixes that agree on the letters both
    state."""
    if a[0] == b[0] == "exact":
        return a[1] == b[1]
    n = min(len(x) for kind, x in (a, b) if kind == "prefix")
    return first(a, n) == first(b, n)


def test_boundary_map_is_equivariant(monkeypatch):
    held = []  # for each omega_limit call, whether its orbit was held
    original = dynamics._Orbit.hold

    def recording(orbit, cap, c):
        held[-1] = True
        original(orbit, cap, c)

    monkeypatch.setattr(dynamics._Orbit, "hold", recording)

    def limit(phi, g):
        held.append(False)
        return omega_limit(phi, g)

    rng = random.Random(21)
    seen = Counter()
    for _ in range(TRIPLES):
        phi, psi, g = draw(rng)
        here = limit(phi, g)
        there = limit(conjugate(phi, psi), psi.apply(g))
        triple = (str(phi.forward), str(psi.forward), str(g))
        # a fixed element maps to a fixed element, and only a fixed one
        assert isinstance(here, FixedElement) == isinstance(there, FixedElement), triple
        if isinstance(here, FixedElement):
            assert there.word == psi.apply(g), triple
            seen["fixed"] += 1
            continue
        if isinstance(here, Boundary) and isinstance(there, Boundary):
            assert agree(limit_of(here, psi), limit_of(there)), triple
            seen["conjugation"] += 1
        else:
            seen["one side" if isinstance(here, Boundary) or isinstance(there, Boundary) else "neither"] += 1
        if isinstance(here, Boundary) and isinstance(here.point, Rational):
            # the limit is fixed by phi, so by its inverse too
            assert apply_rational(phi.backward, here.point.point) == here.point.point, triple
            seen["inverse"] += 1
        shifted = limit(phi, phi.apply(g))
        if isinstance(here, Boundary) and isinstance(shifted, Boundary):
            assert agree(limit_of(here), limit_of(shifted)), triple
            seen["shift"] += 1
    # over the 120 triples of seed 21: 92 conjugations and 93 shifts
    # compared, 47 inverse checks, 10 fixed, 2 with one side certified
    # and 16 with neither; 94 of 350 omega_limit calls held
    assert seen["conjugation"] >= TRIPLES // 4 and seen["shift"] >= TRIPLES // 4, seen
    assert 5 * sum(held) >= len(held), (sum(held), len(held))
