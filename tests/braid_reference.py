"""Test-side word helpers.

Most read one field of the package's BraidGeometry (braid.geometry): the
braid's action on the free group on the disk meridians, the Wirtinger
relations, and the longitude and segment words.  The others are a word's
powers and its abelianization.
"""

from itertools import chain

from cordsheaf.braid import MeridianWord, geometry


def artin_action(braid, word):
    """The braid's automorphism of the free group on the disk meridians."""
    images = geometry(braid).transported
    return MeridianWord(chain.from_iterable(
        (images[s - 1] if e == 1 else images[s - 1].inverse()).letters for s, e in word.letters))


def wirtinger_relations(braid):
    """Pairs (m_i, phi_B(m_i)); their equality presents the link group."""
    images = geometry(braid).transported
    return [(MeridianWord.generator(i + 1), images[i]) for i in range(braid.n)]


def longitude_word(braid, component):
    """Zero-framed longitude of a closure component, based at its base strand."""
    return geometry(braid).longitudes[component]


def segment_word(braid, strand):
    """The longitude segment of one strand's passage through the braid."""
    return geometry(braid).segments[strand]


def power(word, k):
    """word ** k in the free group."""
    return MeridianWord((word if k >= 0 else word.inverse()).letters * abs(k))


def exponent_sums(word, n):
    """Abelianization: total exponent on each of m_1..m_n."""
    sums = [0] * n
    for s, e in word.letters:
        sums[s - 1] += e
    return sums
