"""Every size guard prices its construction exactly: a limit equal to the
count admits it, one less refuses it, and the message names the count.
Only ``limits.MAX_COUNT`` is patched (and ``CATMON_MAX_ARROWS`` for the
arrow limit)."""
import re
from pathlib import Path

import pytest

from catmon import (CatmonError, GroupPresentation, GroupSpec,
                    MonoidPresentation, Poset, SimplicialComplex,
                    SizeLimitExceeded, cat_of_poset, congruence_class,
                    elements_up_to, limits, verify_m6_embedding)
from catmon.formats import load_category, parse_functor
from catmon.homotopy import SpanningTree, tietze_collapse

DATA = Path(__file__).resolve().parent.parent / "data"
C6 = (DATA / "c6.category").read_text()
# four commuting generators: the class of a word is its rearrangements
COMMUTING = MonoidPresentation("abcd", [((x, y), (y, x)) for x, y in
                                        ("ab", "ac", "ad", "bc", "bd", "cd")])


def _count_limit(monkeypatch, n):
    monkeypatch.setattr(limits, "MAX_COUNT", n)


def _arrow_limit(monkeypatch, n):
    monkeypatch.setenv("CATMON_MAX_ARROWS", str(n))


def _ladder(ranks):
    """A bottom, then ranks of two, every cover between neighbouring ranks:
    2**ranks maximal chains."""
    levels = [["b"]] + [[f"r{k}x", f"r{k}y"] for k in range(ranks)]
    return Poset([e for r in levels for e in r],
                 [(x, y) for lo, hi in zip(levels, levels[1:])
                  for x in lo for y in hi])


# (guard, its count, how the message shows it, what it counts, the limit
# it reads, the construction)
GUARDS = [
    ("arrows of a loaded category", 15, "15", "arrows", _arrow_limit,
     lambda: load_category(C6)),
    ("Cat(P) before its walk", 10, "10", "arrows", _arrow_limit,
     lambda: cat_of_poset(Poset("abcd", [("a", "b"), ("b", "c"),
                                         ("c", "d")]))),
    ("class-walk layers", 6 ** 3, "6**3", "classes", _count_limit,
     lambda: verify_m6_embedding(3)),
    ("Um(S) elements", 1 + 12 + 135, "148", "elements", _count_limit,
     lambda: elements_up_to(load_category(C6), 2)),
    ("faces", 2 ** 5 - 1, "31", "faces", _count_limit,
     lambda: SimplicialComplex([list("abcde")]).faces()),
    ("chains", 2 ** 4, "16", "maximal chains", _count_limit,
     lambda: _ladder(4).maximal_chains()),
    ("zn dimensions", 7, "7", "dimensions", _count_limit,
     lambda: parse_functor("functor\ntarget zn 7\n")),
    ("zn dimensions of a GroupSpec", 7, "7", "dimensions", _count_limit,
     lambda: GroupSpec.zn(7)),
    # counted while the class grows: 4! rearrangements of a b c d
    ("congruence class words", 24, "24", "words", _count_limit,
     lambda: congruence_class(COMMUTING, "abcd")),
]


@pytest.mark.parametrize("guard, count, shown, what, set_limit, build",
                         GUARDS, ids=[g[0] for g in GUARDS])
def test_every_guard_admits_its_limit_and_refuses_one_less(
        monkeypatch, guard, count, shown, what, set_limit, build):
    set_limit(monkeypatch, count)
    build()
    set_limit(monkeypatch, count - 1)
    with pytest.raises(SizeLimitExceeded, match=rf"^{re.escape(shown)} "
                       rf"{what}\b.*, over the limit of {count - 1}$"):
        build()


def test_the_arrow_limit_defaults_to_ten_thousand(monkeypatch):
    monkeypatch.delenv("CATMON_MAX_ARROWS", raising=False)
    assert limits.max_arrows() == 10_000


def test_a_power_is_priced_exactly_and_past_the_bit_length_untaken():
    # 10**6 has 20 bits: 2**20 is taken and compared, 2**21 is over from
    # its exponent alone, and a base of 0 or 1 is never over
    limits.require((2, 19), "words")
    for exponent in (20, 21):
        with pytest.raises(SizeLimitExceeded, match=rf"^2\*\*{exponent} "):
            limits.require((2, exponent), "words")
    for base in (0, 1):
        limits.require((base, 10 ** 9), "words")


def test_tietze_relator_letters_are_priced_as_substitution_grows_them(
        monkeypatch):
    # a = (b c d e)^-1 from the first relator; put into a^4, it gives one
    # relator of 16 letters, grown from 9
    pres = GroupPresentation("abcde", [[(g, 1) for g in "abcde"],
                                       [("a", 1)] * 4])
    tree = SpanningTree("a", ())
    _count_limit(monkeypatch, 16)
    assert [len(r) for r in tietze_collapse(pres, tree).relators] == [16]
    _count_limit(monkeypatch, 15)
    with pytest.raises(SizeLimitExceeded,
                       match=r"^16 relator letters, over the limit of 15$"):
        tietze_collapse(pres, tree)


def _cyclic_group_text(n):
    """Z/n as a one-object category file: n arrows, n**2 composites, and
    n**3 associativity triples, all through its one hom-set."""
    lines = ["category", "obj o"]
    lines += [f"arrow g{i} o o" for i in range(1, n)]
    lines += [f"comp g{i} g{j} " + (f"g{(i + j) % n}" if (i + j) % n
                                    else "id:o")
              for i in range(1, n) for j in range(1, n)]
    return "\n".join(lines) + "\n"


def test_category_files_are_priced_before_validation(monkeypatch):
    # Z/5: 25 composites and 125 triples
    text = _cyclic_group_text(5)
    _count_limit(monkeypatch, 150)
    assert load_category(text).size == 5
    _count_limit(monkeypatch, 149)
    with pytest.raises(SizeLimitExceeded,
                       match=r"^150 composites and associativity triples, "
                             r"over the limit of 149$"):
        load_category(text)
    # the price is taken before the walk: a bad composite is not reached
    bad = text.replace("comp g1 g1 g2", "comp g1 g1 g3")
    with pytest.raises(SizeLimitExceeded):
        load_category(bad)
    _count_limit(monkeypatch, 150)
    with pytest.raises(CatmonError):
        load_category(bad)
