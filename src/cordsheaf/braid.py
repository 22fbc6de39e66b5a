"""Braid words, closure components, the action on disk meridians, and
longitudes with zero framing.

Conventions, fixed once and tested rather than argued:

* A braid word is a list of signed Artin generators; letter ``k`` (resp.
  ``-k``) is the positive (resp. negative) crossing of strands at positions
  ``k`` and ``k+1``.  Strands travel through the letters in word order.

* ``permutation`` maps the start position of a strand to its end position,
  so ``permutation(B1 * B2) = permutation(B2) o permutation(B1)``.

* At a positive crossing ``k`` the strand moving from position ``k+1`` to
  ``k`` passes under; at a negative crossing the mover from ``k`` to ``k+1``
  does.  The induced rewrite of the per-position meridian words is the
  substitution ``m_k -> m_k m_{k+1} m_k^-1``, ``m_{k+1} -> m_k`` (and its
  inverse for negative letters); composing these positionally through the
  word gives ``artin_action``.

* The longitude of a component is assembled from per-strand segments: the
  segment of strand ``i`` collects, in traversal order, the current meridian
  word of every strand that ``i`` dives under, raised to minus the crossing
  sign (the exponent that makes the word commute with the base meridian in
  the link group presented by the relations above; checked by test).  Zero
  framing is restored by prepending ``m_b^w`` to the base strand's segment,
  where ``w`` is the signed count of the component's self-crossings; the
  base segment is also the one carrying the component's marked point, so the
  longitude unit is picked up there and nowhere else.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

from .field import WireFormatError, decimal_integer, wire_get

# Letters the expanded words of one BraidGeometry may hold.  Words grow
# exponentially with crossings: (s1 s2^-1)^12 on 3 strands holds about
# 450 000, and 32 crossings of that braid about 20 million.
MAX_LETTERS = 10 ** 6


class BudgetExceededError(RuntimeError):
    """An input needs more work than a fixed budget allows."""

    def __init__(self, space: int, budget: int, unit: str = "tuples",
                 what: str = "search space"):
        super().__init__(f"{what} of {space} {unit} exceeds the budget {budget}")
        self.space = space
        self.budget = budget


class NonMonotoneComponentsError(ValueError):
    """Cycle labels cannot be made non-decreasing without relabeling strands."""


class MeridianWord:
    """A reduced word in the free group on the disk meridians m_1..m_n.

    A letter is (strand, exponent) with an int strand >= 1 and an int
    exponent +-1; the word does not know n, so the functions that apply it
    reject a strand above theirs (check_strands).
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        self.letters = _reduce(letters)

    @classmethod
    def generator(cls, strand: int, exponent: int = 1) -> "MeridianWord":
        return cls([(strand, exponent)])

    @classmethod
    def identity(cls) -> "MeridianWord":
        return cls(())

    def __mul__(self, other: "MeridianWord") -> "MeridianWord":
        return MeridianWord(self.letters + other.letters)

    def inverse(self) -> "MeridianWord":
        flip = {letter: (letter[0], -letter[1]) for letter in set(self.letters)}
        return MeridianWord([flip[letter] for letter in reversed(self.letters)])

    def __pow__(self, n: int) -> "MeridianWord":
        return MeridianWord((self if n >= 0 else self.inverse()).letters * abs(n))

    def is_identity(self) -> bool:
        return not self.letters

    def check_strands(self, n: int) -> None:
        """Raise ValueError if a letter names a strand above n."""
        top = max((s for s, _ in self.letters), default=0)
        if top > n:
            raise ValueError(f"meridian word names strand {top}, but there are only {n}")

    def exponent_sums(self, n: int) -> list[int]:
        """Abelianization: total exponent on each of m_1..m_n."""
        sums = [0] * n
        for s, e in self.letters:
            sums[s - 1] += e
        return sums

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MeridianWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        if not self.letters:
            return "e"
        return "*".join(f"m{s}" if e == 1 else f"m{s}^-1" for s, e in self.letters)


def _reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The freely reduced word; equal letters share one tuple object, taken
    from the input, so a word of any length holds at most 2n of them."""
    out: list[tuple[int, int]] = []
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    for letter in letters:
        s, e = letter
        if type(s) is not int or s < 1 or type(e) is not int or e not in (1, -1):
            raise ValueError(f"letter {letter!r} is not (strand >= 1, exponent +-1)")
        if out and out[-1][0] == s and out[-1][1] == -e:
            out.pop()
        else:
            if type(letter) is not tuple:
                letter = (s, e)
            out.append(shared.setdefault(letter, letter))
    return tuple(out)


class BraidWord:
    """A word in the Artin generators of Br_n; the empty word is allowed."""

    __slots__ = ("n", "word")

    def __init__(self, n: int, word: Sequence[int] = ()):
        if type(n) is not int:
            raise ValueError(f"strand count {n!r} is not an int")
        if n < 1:
            raise ValueError("strand count must be >= 1")
        self.n = n
        self.word = tuple(word)
        for g in self.word:
            if type(g) is not int:
                raise ValueError(f"letter {g!r} is not an int")
            if g == 0 or abs(g) > n - 1:
                raise ValueError(f"letter {g} out of range for Br_{n}")

    @classmethod
    def parse(cls, n: int, text: str) -> "BraidWord":
        """Parse signed integers separated by ASCII whitespace, e.g.
        ``"1 -2 1"``; each is ASCII digits with an optional sign."""
        try:
            word = [decimal_integer(tok) for tok in re.split(r"[ \t\n\r\f\v]+", text) if tok]
        except ValueError:
            raise ValueError(f"expected whitespace-separated signed integers, "
                             f"got {text!r}") from None
        return cls(n, word)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, [-g for g in reversed(self.word)])

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(self.n, self.word + other.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BraidWord) and (self.n, self.word) == (other.n, other.word)

    def __hash__(self) -> int:
        return hash((self.n, self.word))

    def __repr__(self) -> str:
        return f"BraidWord(n={self.n}, word={list(self.word)})"

    def to_json(self) -> dict:
        return {"n": self.n, "word": list(self.word)}

    @classmethod
    def from_json(cls, data: dict, path: str = "$") -> "BraidWord":
        n = wire_get(data, "n", path, int)
        if n < 1:
            raise WireFormatError(f"{path}.n", f"strand count must be >= 1, got {n}")
        word = wire_get(data, "word", path, list)
        for k, g in enumerate(word):
            if type(g) is not int or not 0 < abs(g) < n:
                raise WireFormatError(f"{path}.word[{k}]",
                                      f"expected a generator in +-1..{n - 1}, got {g!r}")
        return cls(n, word)


class ComponentMap:
    """Strand -> component labels for the closure, labels in cycle-min order;
    ``strands`` holds each component's strands, in order."""

    __slots__ = ("n", "r", "labels", "base", "strands")

    def __init__(self, n: int, labels: Sequence[int]):
        self.n = n
        self.labels = tuple(labels)
        self.r = max(labels)
        strands = [()] * self.r
        for strand, s in enumerate(self.labels, start=1):
            strands[s - 1] += (strand,)
        self.strands = tuple(strands)
        self.base = tuple([s[0] if s else None for s in strands])

    def component(self, strand: int) -> int:
        return self.labels[strand - 1]

    def base_strand(self, component: int) -> int:
        return self.base[component - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ComponentMap) and (self.n, self.labels) == (other.n, other.labels)

    def __repr__(self) -> str:
        return f"ComponentMap(r={self.r}, labels={list(self.labels)})"


def permutation(braid: BraidWord) -> tuple[int, ...]:
    """tau_B as a tuple: entry i-1 is the end position of the strand starting at i."""
    occupant = list(range(1, braid.n + 1))
    for g in braid.word:
        k = abs(g) - 1
        occupant[k], occupant[k + 1] = occupant[k + 1], occupant[k]
    tau = [0] * braid.n
    for pos, strand in enumerate(occupant, start=1):
        tau[strand - 1] = pos
    return tuple(tau)


def _cycles(tau: Sequence[int]) -> list[list[int]]:
    n = len(tau)
    seen = [False] * n
    cycles = []
    for i in range(1, n + 1):
        if seen[i - 1]:
            continue
        cyc = []
        j = i
        while not seen[j - 1]:
            seen[j - 1] = True
            cyc.append(j)
            j = tau[j - 1]
        cycles.append(cyc)
    cycles.sort(key=min)
    return cycles


def _component_labels(braid: BraidWord) -> list[int]:
    tau = permutation(braid)
    labels = [0] * braid.n
    for s, cyc in enumerate(_cycles(tau), start=1):
        for strand in cyc:
            labels[strand - 1] = s
    return labels


def component_map(braid: BraidWord) -> ComponentMap:
    """Components of the closure; raises if the labeling is not non-decreasing.

    ``relabel_for_components`` produces a conjugated braid word with interval
    components when this raises.
    """
    labels = _component_labels(braid)
    for i in range(1, braid.n):
        if labels[i] < labels[i - 1]:
            raise NonMonotoneComponentsError(
                f"component labels {labels} are not non-decreasing; "
                "conjugate the braid first (relabel_for_components)"
            )
    return ComponentMap(braid.n, labels)


def relabel_for_components(braid: BraidWord) -> tuple[BraidWord, tuple[int, ...]]:
    """Conjugate by a permutation braid so components become strand intervals.

    Returns the conjugated word and the strand relabeling pi (old strand i
    becomes new strand pi[i-1]).  The closure link is unchanged.
    """
    tau = permutation(braid)
    order = [strand for cyc in _cycles(tau) for strand in cyc]
    pi = [0] * braid.n
    for new_pos, old in enumerate(order, start=1):
        pi[old - 1] = new_pos
    # Write pi as a positive word moving strand order[j] to position j+1.
    conj: list[int] = []
    current = list(range(1, braid.n + 1))
    for target_pos in range(braid.n):
        src = current.index(order[target_pos])
        for k in range(src, target_pos, -1):
            conj.append(k)  # sigma_k moves it one slot left
            current[k - 1], current[k] = current[k], current[k - 1]
    # conj's permutation is pi itself, so conj^-1 * B * conj closes to the
    # same link with strands relabeled by pi.
    conj_word = BraidWord(braid.n, conj)
    relabeled = conj_word.inverse() * braid * conj_word
    return relabeled, tuple(pi)


def _positional_step(theta: list[MeridianWord], g: int) -> None:
    k = abs(g) - 1
    a, b = theta[k], theta[k + 1]
    if g > 0:
        theta[k], theta[k + 1] = a * b * a.inverse(), a
    else:
        theta[k], theta[k + 1] = b, b.inverse() * a * b


class BraidGeometry:
    """Everything the relation checks need from one pass through the braid.

    Attributes:
        tau: closure permutation.
        components: ComponentMap.
        transported: meridian word of the strand ending at each position,
            in terms of the start meridians (the Wirtinger right-hand sides).
        segments: per strand, the longitude segment of its passage, with the
            framing correction folded into the base strand's segment.
        row_reads: per strand i, which rows of R its transport-row identity
            must update, and for how long.  A segment's operator acts on R
            one letter at a time, from the last letter to the first (the
            application order), and a letter on strand t reads row t.  A
            pair (r, k), with r counted from 0, says that row r is updated
            by the first k steps only: k is the last step that reads it, or
            the segment's length for row i itself, which the identity
            compares.  Rows with k = 0 are left out, and pairs come latest
            first: at most n per strand, whatever the segment's length.
        writhe: per component, the signed self-crossing count.
        longitudes: per component, the full zero-framed longitude word based
            at the base strand.
    """

    __slots__ = ("braid", "tau", "components", "transported", "segments",
                 "row_reads", "writhe", "longitudes")

    def __init__(self, braid: BraidWord):
        self.braid = braid
        self.tau = permutation(braid)
        # The transport pass itself works for any labeling; the monotone
        # requirement is enforced where lambda/mu get indexed per component.
        self.components = ComponentMap(braid.n, _component_labels(braid))
        n = braid.n

        theta = [MeridianWord.generator(i) for i in range(1, n + 1)]
        occupant = list(range(1, n + 1))
        contributions: dict[int, list[MeridianWord]] = {i: [] for i in range(1, n + 1)}
        writhe = [0] * self.components.r
        letters = n  # held by theta and the contributions
        for g in braid.word:
            k = abs(g) - 1
            if g > 0:
                over_pos, under_pos = k, k + 1
            else:
                over_pos, under_pos = k + 1, k
            over_strand, under_strand = occupant[over_pos], occupant[under_pos]
            over_word = theta[over_pos]
            contributions[under_strand].append(over_word.inverse() if g > 0 else over_word)
            cu = self.components.component(under_strand)
            if cu == self.components.component(over_strand):
                writhe[cu - 1] += 1 if g > 0 else -1
            letters += len(over_word) - len(theta[k]) - len(theta[k + 1])
            _positional_step(theta, g)
            letters += len(theta[k]) + len(theta[k + 1])
            if letters > MAX_LETTERS:
                raise BudgetExceededError(letters, MAX_LETTERS, "letters", "braid geometry")
            occupant[k], occupant[k + 1] = occupant[k + 1], occupant[k]

        self.transported = tuple(theta)
        self.writhe = tuple(writhe)

        segments = {}
        for i in range(1, n + 1):
            s = self.components.component(i)
            w = writhe[s - 1] if i == self.components.base_strand(s) else 0
            framing = ((i, 1 if w > 0 else -1),) * abs(w)
            segments[i] = MeridianWord(chain(framing, *(c.letters for c in contributions[i])))
        self.segments = segments
        self.row_reads = tuple(_row_reads(i, segments[i].letters) for i in range(1, n + 1))
        # each cycle starts at its base strand, the least one
        self.longitudes = {s: MeridianWord(chain.from_iterable(segments[i].letters for i in cyc))
                           for s, cyc in enumerate(_cycles(self.tau), start=1)}


def _row_reads(strand: int, letters: Sequence[tuple[int, int]]) -> tuple:
    """BraidGeometry.row_reads of one strand, from its segment's letters."""
    last = {}
    for k, (t, _) in enumerate(reversed(letters)):
        last[t - 1] = k  # step k reads row t; the last such step wins
    last[strand - 1] = len(letters)
    return tuple(sorted(((r, k) for r, k in last.items() if k), key=lambda rk: -rk[1]))


@lru_cache(maxsize=256)
def geometry(braid: BraidWord) -> BraidGeometry:
    return BraidGeometry(braid)


def artin_action(braid: BraidWord, word: MeridianWord) -> MeridianWord:
    """The braid's automorphism of the free group on the disk meridians."""
    images = geometry(braid).transported
    return MeridianWord(chain.from_iterable(
        (images[s - 1] if e == 1 else images[s - 1].inverse()).letters for s, e in word.letters))


def wirtinger_relations(braid: BraidWord) -> list[tuple[MeridianWord, MeridianWord]]:
    """Pairs (m_i, phi_B(m_i)); their equality presents the link group."""
    images = geometry(braid).transported
    return [(MeridianWord.generator(i + 1), images[i]) for i in range(braid.n)]


def longitude_word(braid: BraidWord, component: int) -> MeridianWord:
    """Zero-framed longitude of a closure component, based at its base strand."""
    return geometry(braid).longitudes[component]


def segment_word(braid: BraidWord, strand: int) -> MeridianWord:
    """The longitude segment of one strand's passage through the braid."""
    return geometry(braid).segments[strand]
