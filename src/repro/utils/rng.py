"""Seeded random number helpers.

All stochastic code in this library accepts a ``seed`` argument that may be
``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`random.Random` instance (shared stream).  :func:`ensure_rng`
normalizes those three cases so call sites never branch on the type.

We deliberately use :mod:`random` (Mersenne Twister) rather than numpy's
generators for the walk code: walks draw one neighbor at a time and the
Python generator is faster for scalar draws, keeps the substrate free of
array semantics, and is seedable/reproducible across platforms.

A walk chain that owns its randomness draws through a :class:`WordStream`:
the same Mersenne stream, buffered as 32-bit words, so a
:class:`StreamCursor` can read the chain's future draws ahead of it by
index (the replay behind prefetch prediction) without a second generator.
Snapshots carry a Mersenne state packed (:func:`pack_state`): its 625
words as one ``bytes`` value, which the snapshot codec stores whole,
instead of 625 ints it would tag one by one.
"""

from __future__ import annotations

import random
import struct
from typing import Tuple, Union

from repro.errors import SnapshotError

RngLike = Union[None, int, random.Random]


def ensure_rng(seed: RngLike = None) -> random.Random:
    """Return a :class:`random.Random` for the given seed-like value.

    Args:
        seed: ``None`` for fresh entropy, an ``int`` for a deterministic
            stream, or an existing ``random.Random`` to be used as-is.

    Returns:
        A ``random.Random`` instance. When ``seed`` is already a generator it
        is returned unchanged so callers can share one stream.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def spawn_rng(rng: random.Random, stream: int) -> random.Random:
    """Derive an independent child generator from ``rng``.

    Used by multi-run experiment drivers so that run *i* of an experiment is
    reproducible regardless of how many draws earlier runs consumed.

    Args:
        rng: Parent generator (consumed: one 64-bit draw).
        stream: Index of the child stream; children with distinct indices
            from the same parent state are independent for practical
            purposes.

    Returns:
        A new ``random.Random`` seeded from the parent and the stream index.
    """
    base = rng.getrandbits(64)
    return random.Random((base << 16) ^ (stream * 0x9E3779B97F4A7C15 & ((1 << 64) - 1)))


_MT = random.Random.__mro__[1]  # the C Mersenne Twister under random.Random
_mt_getstate = _MT.getstate
_mt_setstate = _MT.setstate
_mt_getrandbits = _MT.getrandbits
_mt_random = _MT.random

#: Words generated per buffer fill.
_FILL = 512

#: The Mersenne state's 625 words (624 key words and the position), packed.
_PACKED = struct.Struct("<625I")


def pack_state(state: tuple) -> tuple:
    """Pack a :meth:`random.Random.getstate` value for a snapshot.

    Returns ``(version, words, gauss_next)`` with the 625 Mersenne words
    as one little-endian ``bytes`` value: the codec tags it once, not
    word by word.  :func:`unpack_state` inverts it.
    """
    version, words, gauss_next = state
    return version, _PACKED.pack(*words), gauss_next


def unpack_state(state: tuple) -> tuple:
    """The :meth:`random.Random.setstate` value of a snapshotted state.

    Accepts :func:`pack_state`'s form and Random's own tuple layout
    (which snapshots written before the packed form carry) unchanged.

    Raises:
        SnapshotError: If the packed words are not 625 32-bit words.
    """
    version, words, gauss_next = state
    if isinstance(words, bytes):
        if len(words) != _PACKED.size:
            raise SnapshotError(f"packed Mersenne state has {len(words)} bytes, expected {_PACKED.size}")
        words = _PACKED.unpack(words)
    return version, words, gauss_next


class WordStream(random.Random):
    """A :class:`random.Random` whose 32-bit words can be read ahead by index.

    Every word of the Mersenne stream has an absolute index, and the live
    draws consume them in order from :attr:`index`.  A
    :class:`StreamCursor` reads the words after the live one at its own
    index: they are generated in bulk (``getrandbits(32 * n)``) into a
    buffer, and the live draws take them from it, then go back to the
    generator.  ``randrange(n)`` decodes a buffered word as CPython does,
    ``word >> (32 - n.bit_length())`` with rejection, and ``random()`` as
    res53 over two words; any other draw first rewinds the generator to
    the live word.  Every method therefore returns exactly what a plain
    ``Random`` with the same seed returns, and :meth:`getstate` is the
    Mersenne state at the live word, so snapshots keep their layout.
    :meth:`setstate` and :meth:`seed` drop the buffer and continue at an
    index no word had before, so an index never names two different words.
    """

    def __init__(self, seed=None) -> None:
        self._words: Tuple[int, ...] = ()  # buffered words, from index _base
        self._base = 0
        self._pos = 0  # the live word is _words[_pos], or the generator's next
        self._top = 0  # one past the highest index ever buffered
        self._state = None  # Mersenne state at _base while _words is non-empty
        super().__init__(seed)

    @property
    def index(self) -> int:
        """Absolute index of the next word a live draw consumes."""
        return self._base + self._pos

    def _sync(self) -> None:
        """Put the generator at the live word and drop the buffer."""
        if self._words:
            if self._pos < len(self._words):
                _mt_setstate(self, self._state)
                _mt_getrandbits(self, 32 * self._pos)
            self._base += self._pos
            self._words = ()
            self._pos = 0

    def _fill(self, j: int) -> None:
        """Buffer the words through index ``j``, dropping those already used."""
        if self._pos:
            self._sync()
        if not self._words:
            self._state = _mt_getstate(self)
        n = max(_FILL, j + 1 - self._base - len(self._words))
        self._words += struct.unpack("<%dI" % n, _mt_getrandbits(self, 32 * n).to_bytes(4 * n, "little"))
        self._top = max(self._top, self._base + len(self._words))

    def randrange(self, start, stop=None, step=1):
        if stop is None and step == 1 and type(start) is int and 0 < start <= 0xFFFFFFFF:
            k = start.bit_length()
            words = self._words
            if words:
                i = self._pos
                while i < len(words):
                    r = words[i] >> (32 - k)
                    i += 1
                    if r < start:
                        self._pos = i
                        return r
                self._pos = i
                self._sync()
            r = _mt_getrandbits(self, k)
            taken = 1
            while r >= start:
                r = _mt_getrandbits(self, k)
                taken += 1
            self._base += taken
            return r
        return super().randrange(start, stop, step)

    def random(self) -> float:
        words = self._words
        if words:
            i = self._pos
            if i + 1 < len(words):
                self._pos = i + 2
                return ((words[i] >> 5) * 67108864.0 + (words[i + 1] >> 6)) * (1.0 / 9007199254740992.0)
            self._sync()
        self._base += 2
        return _mt_random(self)

    def getrandbits(self, k) -> int:
        # Random's _randbelow (choice, shuffle, sample, ...) draws through here.
        self._sync()
        r = _mt_getrandbits(self, k)  # raises on a bad k, as Random does
        self._base += (k - 1) // 32 + 1 if k else 0
        return r

    def seed(self, a=None, version=2) -> None:
        super().seed(a, version)
        self._base = self._top = max(self._top, self._base + self._pos) + 1
        self._words = ()
        self._pos = 0

    def getstate(self):
        """The Mersenne state at the live word, in :class:`random.Random`'s layout."""
        self._sync()
        return self.VERSION, _mt_getstate(self), self.gauss_next

    def setstate(self, state) -> None:
        super().setstate(state)
        self._base = self._top = max(self._top, self._base + self._pos) + 1
        self._words = ()
        self._pos = 0


class StreamCursor:
    """Reads a :class:`WordStream`'s words ahead of its live draws.

    ``index`` is the absolute index of the next word the cursor reads; it
    must not fall behind the stream's live :attr:`WordStream.index`.
    Reading consumes nothing live: the live draws later decode the same
    words.  Only ``randrange(n)`` for ``0 < n <= 2**32`` and ``random()``
    are provided.
    """

    __slots__ = ("_stream", "index")

    def __init__(self, stream: WordStream) -> None:
        self._stream = stream
        self.index = stream.index

    def randrange(self, n: int) -> int:
        stream = self._stream
        shift = 32 - n.bit_length()
        j = self.index
        while True:
            words, i = stream._words, j - stream._base
            while i < len(words):
                r = words[i] >> shift
                i += 1
                if r < n:
                    self.index = stream._base + i
                    return r
            j = stream._base + i
            stream._fill(j)

    def random(self) -> float:
        stream = self._stream
        j = self.index
        if j + 1 >= stream._base + len(stream._words):
            stream._fill(j + 1)
        words, i = stream._words, j - stream._base
        self.index = j + 2
        return ((words[i] >> 5) * 67108864.0 + (words[i + 1] >> 6)) * (1.0 / 9007199254740992.0)
