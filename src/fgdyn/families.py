"""Catalog of the automorphism families with their known invariants.

Each constructor returns a verified :class:`AutoPair`; :func:`family`
wraps a pair together with its documented fixed generators, default
seeds and (where known) parabolic certificate, for use by the CLI and
the reproduction scenarios.

The ``phi_k`` family over F_4 (a fixed, b -> ba, c -> ca^(k+1), d -> dc)
carries a parabolic orbit seeded at ``b d^-1`` for k >= 1; at k = 0 the
word ``b a c^-1`` is itself fixed, so the forward limit of ``b d^-1`` is
``b a c^-1 (a^-1)^∞`` and the backward limit is ``b (a^-1)^∞``.  The
``alpha_k`` and ``beta`` families are free-product assemblies of the
``phi_k`` block on a-d: ``alpha_k`` beside a fixed letter e, and ``beta``
(the k = 1 block) beside a hyperbolic automorphism theta of the rank-2
free factor on e-f, with any remaining generators fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .automorphisms import (
    AutoPair,
    Endomorphism,
    identity_pair,
    inner,
    verify_pair,
)
from .dynamics import PrefixApprox, rational_from_element, rational_point
from .graphs import GraphTemplate
from .words import (
    Alphabet,
    Word,
    generator,
    identity,
    parse_word,
    primitive_root,
    standard_alphabet,
)


class UnknownFamilyError(ValueError):
    pass


F2 = standard_alphabet(2)
F4 = standard_alphabet(4)


def _endo(alphabet: Alphabet, *images: str) -> Endomorphism:
    return Endomorphism(alphabet, [parse_word(alphabet, t) for t in images])


def make_phi_k(k: int) -> AutoPair:
    """The rank-4 polynomially growing member with twist parameter k >= 0.

    The parabolic orbit at ``b d^-1`` needs k >= 1; at k = 0 its forward
    and backward limits differ.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    forward = _endo(F4, "a", "b a", f"c a^{k + 1}", "d c")
    backward = _endo(F4, "a", "b a^-1", f"c a^{-(k + 1)}", f"d a^{k + 1} c^-1")
    return verify_pair(forward, backward)


def make_alpha_k(k: int) -> AutoPair:
    """The rank-5 extension of :func:`make_phi_k` fixing the new generator."""
    return _free_product(5, make_phi_k(k))


def make_sigma() -> AutoPair:
    """The rank-2 involution inverting both generators."""
    e = _endo(F2, "a^-1", "b^-1")
    return verify_pair(e, e)


def make_delta() -> AutoPair:
    """The rank-2 twist a -> a, b -> ba."""
    return make_twist(1, 0)


def make_twist(n: int, k: int) -> AutoPair:
    """Conjugation by a^k composed with the n-th twist power over F_2.

    Images: a -> a, b -> a^k b a^(n-k); the inverse negates both
    parameters.  n = 0 is rejected (the result would be inner).
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    a, b = parse_word(F2, "a"), parse_word(F2, "b")
    forward = Endomorphism(F2, [a, a**k * b * a ** (n - k)])
    backward = Endomorphism(F2, [a, a**-k * b * a ** (k - n)])
    return verify_pair(forward, backward)


class TwistCase(Enum):
    TWO_COMPONENT = "two-component"
    NORTH_SOUTH = "north-south"
    SEMI_NORTH_SOUTH = "semi-north-south"


def classify_twist(n: int, k: int) -> TwistCase:
    """Dynamics type of the (n, k) twist, decided by the sign of k(n-k)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    s = k * (n - k)
    if s == 0:
        return TwistCase.TWO_COMPONENT
    return TwistCase.NORTH_SOUTH if s < 0 else TwistCase.SEMI_NORTH_SOUTH


def twist_reduce(u: Word, n: int, search_bound: int = 4) -> Optional[tuple[Word, int]]:
    """Bounded search for ``w`` with ``[w^-1 u delta^n(w)] = a^k``.

    A witness shows that conjugation by ``u`` composed with the n-th
    twist power is conjugate (by ``w``) to the (n, k) twist.  ``None``
    means no witness within the bound; that is "unresolved", not a
    hyperbolicity verdict.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if search_bound < 0:
        raise ValueError(f"search bound must be nonnegative, got {search_bound}")
    delta_n = make_twist(n, 0)
    frontier = [identity(F2)]
    seen = {frontier[0]}
    for _ in range(search_bound + 1):
        for w in frontier:
            candidate = w.inverse() * u * delta_n.apply(w)
            if candidate.is_identity():
                return w, 0
            if len(candidate.runs) == 1 and candidate.runs[0][0] == 1:
                return w, candidate.runs[0][1]
        nxt = []
        for w in frontier:
            for letter in F2.signed_letters:
                if not w.is_identity() and letter == -w.last_letter():
                    continue
                extended = w * generator(F2, letter)
                if extended not in seen:
                    seen.add(extended)
                    nxt.append(extended)
        frontier = nxt
    return None


# stock hyperbolic rank-2 automorphisms, named by abelianized trace: the
# images of a and b, those of the inverse, and the commutator the map fixes
_STOCK_THETAS = {
    "trace3": ("a b a", "a b", "b^-1 a", "a^-1 b^2", "a^-1 b^-1 a b"),  # [[2,1],[1,1]], field Q(sqrt 5)
    "trace4": ("a b a b a", "b a", "a b^-2", "b^3 a^-1", "a b a^-1 b^-1"),  # [[3,1],[2,1]], field Q(sqrt 3)
}


def _stock_entry(name: str) -> tuple[str, ...]:
    try:
        return _STOCK_THETAS[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown stock theta {name!r}; available: {sorted(_STOCK_THETAS)}"
        ) from None


def stock_theta(name: str) -> AutoPair:
    """A shipped hyperbolic automorphism of F_2 (names: trace3, trace4)."""
    fwd_x, fwd_y, bwd_x, bwd_y, _ = _stock_entry(name)
    return verify_pair(_endo(F2, fwd_x, fwd_y), _endo(F2, bwd_x, bwd_y))


def stock_theta_fixed(name: str) -> Word:
    """The commutator of a and b that the stock theta ``name`` fixes, which
    generates its fixed subgroup Fix(theta) as far as is known here.

    Each stock theta maps the commutator to itself letter for letter
    (trace3: ``a^-1 b^-1 a b``, trace4: ``a b a^-1 b^-1``).  Its
    abelianization has determinant 1 and trace 3 or 4, so no eigenvalue
    1: a fixed word has exponent sum 0 in a and in b.  That Fix(theta)
    holds nothing outside the commutator's powers is not proved here.  It
    rests on a search: every reduced word of up to 10 letters that theta
    fixes is a power of the commutator (``tests/test_families.py``).
    """
    return parse_word(F2, _stock_entry(name)[4])


def stock_theta_names() -> list[str]:
    return sorted(_STOCK_THETAS)


def _moved(alphabet: Alphabet, w: Word, offset: int) -> Word:
    """``w`` over ``alphabet``, each generator renamed ``offset`` places
    on; renaming keeps a word reduced."""
    return Word(alphabet, tuple((g + offset, e) for g, e in w.runs))


def _free_product(rank: int, *factors: AutoPair) -> AutoPair:
    """The automorphism of F_rank that acts as each factor on its own
    consecutive block of generators, in order, and fixes the generators
    after the last block.

    A factor's images move to its block by renaming the generator of
    each run (:func:`_moved`), so no letter is expanded.
    """
    alphabet = standard_alphabet(rank)
    forward, backward = [], []
    offset = 0
    for factor in factors:
        for images, endo in ((forward, factor.forward), (backward, factor.backward)):
            images += [_moved(alphabet, w, offset) for w in endo.images]
        offset += factor.alphabet.rank
    fixed = [generator(alphabet, g) for g in range(offset + 1, rank + 1)]
    return verify_pair(
        Endomorphism(alphabet, forward + fixed), Endomorphism(alphabet, backward + fixed)
    )


def make_beta(rank: int, theta: AutoPair) -> AutoPair:
    """Free-product assembly over F_rank, rank >= 6.

    Generators 1-4 transform as the k = 1 rank-4 member, generators 5-6
    as the given rank-2 automorphism, and the rest stay fixed.
    """
    if rank < 6:
        raise ValueError("rank must be at least 6")
    if theta.alphabet.rank != 2:
        raise ValueError("theta must act on a rank-2 free group")
    return _free_product(rank, make_phi_k(1), theta)


# ---------------------------------------------------------------------------
# Catalog and expected graph shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    params: dict = field(compare=False)
    pair: AutoPair = None
    fixed_generators: tuple[Word, ...] = ()
    default_seeds: Optional[tuple[Word, ...]] = None
    parabolic_seed: Optional[Word] = None


def _words(alphabet: Alphabet, *texts: str) -> tuple[Word, ...]:
    return tuple(parse_word(alphabet, t) for t in texts)


def family(name: str, **params) -> FamilyInstance:
    """Catalog lookup: a verified pair plus its documented metadata."""
    if name in ("phi_k", "alpha_k", "beta"):
        if name == "beta":
            rank, theta = int(params.get("rank", 6)), params.get("theta", "trace3")
            params = {"rank": rank, "theta": theta}
            pair = make_beta(rank, stock_theta(theta))
        else:
            params = {"k": int(params.get("k", 1))}
            pair = (make_phi_k if name == "phi_k" else make_alpha_k)(params["k"])
        alphabet = pair.alphabet
        # the generators past a-d that the pair fixes: e of alpha_k, g... of beta
        tail = [generator(alphabet, g) for g in range(5, alphabet.rank + 1)]
        fixed = _words(alphabet, "a", "b a b^-1", "c a c^-1")
        if name == "beta":  # theta's commutator, on e-f
            fixed += (_moved(alphabet, stock_theta_fixed(theta), 4),)
        fixed += tuple(x for x in tail if pair.apply(x) == x)
        return FamilyInstance(name, params, pair, fixed, None, parse_word(alphabet, "b d^-1"))
    if name in ("twist", "delta"):
        n = int(params.get("n", 1))
        k = int(params.get("k", 0)) if name == "twist" else 0
        pair = make_twist(n, k)
        if k == 0:
            fixed = _words(F2, "a", "b a b^-1")
        elif k == n:
            fixed = _words(F2, "a", "b^-1 a b")
        else:
            fixed = _words(F2, "a")
        return FamilyInstance(
            name, {"n": n, "k": k}, pair, fixed, _words(F2, "b", "b^-1"), None
        )
    if name == "sigma":
        # the involution fixes no nontrivial element: it inverts every letter
        return FamilyInstance(name, {}, make_sigma(), (), None, None)
    if name == "inner":
        u_text = params.get("u", "a")
        rank = int(params.get("rank", 2))
        alphabet = standard_alphabet(rank)
        u = parse_word(alphabet, u_text) if isinstance(u_text, str) else u_text
        root = () if u.is_identity() else (primitive_root(u)[0],)
        return FamilyInstance(
            name, {"u": str(u), "rank": rank}, inner(u), root, None, None
        )
    if name == "identity":
        rank = int(params.get("rank", 2))
        alphabet = standard_alphabet(rank)
        gens = tuple(generator(alphabet, g) for g in range(1, rank + 1))
        return FamilyInstance(name, {"rank": rank}, identity_pair(alphabet), gens, None, None)
    raise UnknownFamilyError(
        f"unknown family {name!r}; available: phi_k, alpha_k, beta, twist, delta, sigma, inner, identity"
    )


def parse_family_spec(spec: str) -> FamilyInstance:
    """Parse catalog strings like ``phi_k:k=3`` or ``twist:n=2,k=1``."""
    name, _, param_text = spec.partition(":")
    params = {}
    if param_text:
        for item in param_text.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise UnknownFamilyError(f"malformed family parameter {item!r}")
            params[key.strip()] = value.strip()
    return family(name.strip(), **params)


def _attractor_prefix_text(k: int, backward: bool) -> str:
    """The rank-4 family's irrational limit as the text of its first 12
    letters, a certified prefix point."""
    point = [4]  # d
    if not backward:
        point += [3, 3]  # c c
    j = 1
    while len(point) < 12:
        point += [1] * (j * (k + 1)) + ([-3] if backward else [3])
        j += 1
    return PrefixApprox(Word.from_letters(F4, point), 12).text()


def expected_graph(name: str, **params) -> GraphTemplate:
    """The documented dynamics-graph shape for a cataloged family.

    ``alpha_k`` has the shape of ``phi_k``, derived as follows.  Its fifth
    generator e is fixed and lies in H, the subgroup of the fixed
    generators.  The automorphism preserves F_4 = <a, b, c, d>, and H is
    the free product of the ``phi_k`` subgroup with <e>, so an element of
    H that takes a point of the boundary of F_4 into it lies in the
    ``phi_k`` subgroup: no two ``phi_k`` classes merge.  A default seed
    (a reduced word of length at most 2) that contains e is fixed, or is
    ``x y`` or ``y x`` with y = e^±1 and x a signed letter of b, c, d.
    ``x y`` has the limits of x, and ``y x`` their y-translates, which
    lie in the same classes as y is in H; so these seeds add no class
    and no edge.  The eight classes of ``phi_k`` are all created by its
    single-letter seeds, which come first in both default seed orders,
    so the vertex texts, edges and the loop at ``b (a^-1)^∞`` are those
    of ``phi_k``.  The two classes of the irrational limits of d are
    approximate: their e-translates join them through the bounded prefix
    search of :func:`fgdyn.graphs.isogloss`, so the count of eight
    vertices rests on that search.
    """
    if name in ("phi_k", "alpha_k"):
        k = int(params.get("k", 1))
        if k < 1:
            raise ValueError("the documented shape needs k >= 1")
        loop_at = rational_point(parse_word(F4, "b"), parse_word(F4, "a^-1")).text()
        vertex_texts = (
            rational_point(parse_word(F4, "b"), parse_word(F4, "a")).text(),
            loop_at,
            rational_point(identity(F4), parse_word(F4, "a")).text(),
            rational_point(identity(F4), parse_word(F4, "a^-1")).text(),
            rational_point(parse_word(F4, "c"), parse_word(F4, "a")).text(),
            rational_point(parse_word(F4, "c"), parse_word(F4, "a^-1")).text(),
            _attractor_prefix_text(k, backward=False),
            _attractor_prefix_text(k, backward=True),
        )
        return GraphTemplate(
            n_vertices=8,
            n_edges=7,
            n_components=3,
            loops=((loop_at, "b d^-1"),),
            vertex_texts=vertex_texts,
        )
    if name == "inner":
        u = params["u"]
        if isinstance(u, str):
            u = parse_word(standard_alphabet(int(params.get("rank", 2))), u)
        plus = rational_from_element(u).text()
        minus = rational_from_element(u.inverse()).text()
        return GraphTemplate(
            n_vertices=2,
            n_edges=1,
            n_components=1,
            vertex_texts=(plus, minus),
            edge_texts=((minus, plus),),
        )
    if name in ("twist", "delta"):
        n = int(params["n"])
        k = int(params.get("k", 0))
        case = classify_twist(n, k)
        a_plus = rational_point(identity(F2), parse_word(F2, "a")).text()
        a_minus = rational_point(identity(F2), parse_word(F2, "a^-1")).text()
        if case is TwistCase.TWO_COMPONENT:
            head = "b" if k == 0 else "b^-1"
            sign = 1 if (k == 0) == (n > 0) else -1
            b_plus = rational_point(
                parse_word(F2, head), parse_word(F2, "a" if sign > 0 else "a^-1")
            ).text()
            b_minus = rational_point(
                parse_word(F2, head), parse_word(F2, "a^-1" if sign > 0 else "a")
            ).text()
            if k == 0:
                edges = ((b_minus, b_plus), (a_plus if n > 0 else a_minus, a_minus if n > 0 else a_plus))
            else:
                edges = ((b_minus, b_plus), (a_minus if n > 0 else a_plus, a_plus if n > 0 else a_minus))
            return GraphTemplate(
                n_vertices=4,
                n_edges=2,
                n_components=2,
                vertex_texts=(b_plus, b_minus, a_plus, a_minus),
                edge_texts=edges,
            )
        if case is TwistCase.NORTH_SOUTH:
            attracting = a_plus if k > 0 else a_minus
            repulsing = a_minus if k > 0 else a_plus
            return GraphTemplate(
                n_vertices=2,
                n_edges=1,
                n_components=1,
                vertex_texts=(a_plus, a_minus),
                edge_texts=((repulsing, attracting),),
            )
        return GraphTemplate(
            n_vertices=2,
            n_edges=2,
            n_components=1,
            vertex_texts=(a_plus, a_minus),
            edge_texts=((a_minus, a_plus), (a_plus, a_minus)),
        )
    raise UnknownFamilyError(f"no documented graph shape for family {name!r}")
