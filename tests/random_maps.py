"""Seeded random automorphisms for tests: products of Nielsen moves."""

from fgdyn.automorphisms import Endomorphism, compose_pairs, identity_pair, verify_pair
from fgdyn.words import Word


def random_pair(rng, alphabet, moves, fixed=0):
    """A product of random elementary Nielsen moves x_i -> x_i x_j^(+-1)
    or x_j^(+-1) x_i, with its inverse; no move changes one of the first
    ``fixed`` generators, so the product fixes them."""
    pair = identity_pair(alphabet)
    gens = [Word.from_letters(alphabet, [g]) for g in range(1, alphabet.rank + 1)]
    for _ in range(moves):
        i, j = rng.sample(range(alphabet.rank), 2)
        while i < fixed:
            i, j = rng.sample(range(alphabet.rank), 2)
        x = gens[j] ** rng.choice((1, -1))
        fwd, bwd = list(gens), list(gens)
        if rng.random() < 0.5:
            fwd[i], bwd[i] = gens[i] * x, gens[i] * x.inverse()
        else:
            fwd[i], bwd[i] = x * gens[i], x.inverse() * gens[i]
        pair = compose_pairs(verify_pair(Endomorphism(alphabet, fwd), Endomorphism(alphabet, bwd)), pair)
    return pair
