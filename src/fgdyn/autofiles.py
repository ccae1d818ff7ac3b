"""Plain-text automorphism definition files.

Format (one directive per line, ``#`` starts a comment):

    alphabet: a b c d
    map b -> b a
    inv b -> b a^-1
    fix: a; b a b^-1
    seeds: b; b^-1; b d^-1

Every generator needs exactly one ``map`` and one ``inv`` line, and the
alphabet is declared once; the two tables must verify as mutually
inverse.  ``fix`` and ``seeds`` are optional semicolon-separated word
lists, each given at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automorphisms import AutoPair, Endomorphism, verify_pair
from .words import Alphabet, Word, parse_word


class AutoFileError(ValueError):
    pass


@dataclass(frozen=True)
class AutoFile:
    pair: AutoPair
    fixed_generators: tuple[Word, ...]
    seeds: Optional[tuple[Word, ...]]


def parse_word_list(alphabet: Alphabet, text: str) -> tuple[Word, ...]:
    """Parse semicolon-separated words; empty items are skipped."""
    return tuple(parse_word(alphabet, part.strip()) for part in text.split(";") if part.strip())


def parse_autofile(text: str) -> AutoFile:
    alphabet: Optional[Alphabet] = None
    forward: dict[str, Word] = {}
    backward: dict[str, Word] = {}
    word_lists: dict[str, tuple[Word, ...]] = {}  # by directive: fix, seeds

    def require_alphabet() -> Alphabet:
        if alphabet is None:
            raise AutoFileError("alphabet must be declared before images")
        return alphabet

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("alphabet:"):
                if alphabet is not None:
                    raise AutoFileError(f"line {lineno}: second alphabet declaration")
                names = line[len("alphabet:") :].split()
                alphabet = Alphabet(names)
            elif line.startswith(("map ", "inv ")):
                table = forward if line.startswith("map ") else backward
                body = line[4:]
                gen, arrow, image = body.partition("->")
                if not arrow:
                    raise AutoFileError("expected '<generator> -> <word>'")
                gen = gen.strip()
                require_alphabet().index(gen)
                if gen in table:
                    raise AutoFileError(f"line {lineno}: second {line[:3]} line for {gen!r}")
                table[gen] = parse_word(require_alphabet(), image.strip())
            elif line.startswith(("fix:", "seeds:")):
                directive, _, body = line.partition(":")
                if directive in word_lists:
                    raise AutoFileError(f"line {lineno}: second {directive}: line")
                word_lists[directive] = parse_word_list(require_alphabet(), body)
            else:
                raise AutoFileError(f"unrecognized directive: {line!r}")
        except AutoFileError:
            raise
        except ValueError as exc:
            raise AutoFileError(f"line {lineno}: {exc}") from exc

    if alphabet is None:
        raise AutoFileError("missing alphabet declaration")
    missing = [n for n in alphabet.names if n not in forward or n not in backward]
    if missing:
        raise AutoFileError(f"missing map/inv lines for generators: {missing}")
    try:
        pair = verify_pair(
            Endomorphism(alphabet, [forward[n] for n in alphabet.names]),
            Endomorphism(alphabet, [backward[n] for n in alphabet.names]),
        )
    except ValueError as exc:
        raise AutoFileError(str(exc)) from exc
    fix_words = word_lists.get("fix", ())
    for word in fix_words:
        if pair.apply(word) != word:
            raise AutoFileError(f"fix: word is not fixed: {word}")
    return AutoFile(pair, fix_words, word_lists.get("seeds"))


def load_autofile(path) -> AutoFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_autofile(fh.read())
