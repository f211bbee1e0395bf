"""Random-number-generator plumbing.

Every randomized routine in this library accepts either a seed (``int``),
an existing :class:`random.Random` instance, or ``None`` (fresh
nondeterministic generator).  Centralizing the coercion keeps signatures
uniform and experiments reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Tuple, Union

SeedLike = Union[None, int, random.Random]

#: a shared-randomness pseudo-random function: ``prf(*keys) -> [0, 1)``.
Prf = Callable[..., float]


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Coerce ``seed`` into a :class:`random.Random` instance.

    ``None`` yields a freshly seeded generator; an ``int`` yields a
    deterministic generator; an existing generator is returned unchanged
    (so callers can thread one RNG through a pipeline).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


class SaltedPrf:
    """A deterministic pseudo-random function ``prf(*keys) -> [0, 1)``.

    Pure function of ``(salt, keys)``; instances are picklable (the
    memo cache is dropped on pickle, which cannot change any sampling
    decision), so node programs holding a PRF can be shipped to the
    sharded engine's worker processes and evolve the *identical*
    clustering there.
    """

    __slots__ = ("_salt", "_cache")

    def __init__(self, salt: bytes) -> None:
        self._salt = salt
        # Shared-randomness protocols re-evaluate the same (round,
        # center) coins at every node, so key tuples repeat heavily;
        # memoizing cannot change any sampling decision.  Bounded like
        # WordCounter: cleared wholesale at the cap, never evicted.
        self._cache: Dict[Tuple[Any, ...], float] = {}

    def __call__(self, *keys: Any) -> float:
        import hashlib

        cache = self._cache
        try:
            hit = cache.get(keys)
        except TypeError:  # unhashable key — compute directly
            hit = None
        else:
            if hit is not None:
                return hit
        # map(repr, ...) keeps the digest input — hence every sampling
        # decision ever recorded in a trace — bit-identical to the
        # original generator-expression form, at lower call overhead.
        digest = hashlib.sha256(
            self._salt + ":".join(map(repr, keys)).encode()
        ).digest()
        value = int.from_bytes(digest[:8], "little") / 2**64
        try:
            if len(cache) >= 1 << 16:
                cache.clear()
            cache[keys] = value
        except TypeError:
            pass
        return value

    def stream(self, tag: str, arity: int) -> Callable[..., float]:
        """``lambda *coords: self(tag, *coords)`` for ``arity`` int
        coordinates, without the memo.

        For keys that never repeat (a fault plan's per-delivery draws)
        the memo is pure cost.  The digest input is the one
        :meth:`__call__` builds — ``"%d"`` and ``repr`` agree on every
        ``int`` (not on ``bool``) — so every value is the same; the
        sha256 state of the constant ``salt + repr(tag) + ":"`` prefix
        is computed once and copied per draw.
        """
        import hashlib

        copy = hashlib.sha256(self._salt + (repr(tag) + ":").encode()).copy
        fmt = b":".join([b"%d"] * arity)
        from_bytes = int.from_bytes

        def draw(*coords: int) -> float:
            h = copy()
            h.update(fmt % coords)
            return from_bytes(h.digest()[:8], "little") / 2**64

        return draw

    def __getstate__(self) -> bytes:
        return self._salt

    def __setstate__(self, salt: bytes) -> None:
        self._salt = salt
        self._cache = {}


def make_prf(seed: SeedLike = None) -> Prf:
    """Build a deterministic pseudo-random function ``prf(*keys) -> [0, 1)``.

    Distributed algorithms here use *shared randomness*: every processor
    derives the same sampling decision for (round, cluster-center) pairs
    from a common seed, so no communication is spent distributing coin
    flips.  The same PRF drives the sequential implementations, which is
    what makes sequential/distributed cross-validation exact.

    The returned callable is a picklable :class:`SaltedPrf`: the salt —
    and therefore every sampling decision — is derived from ``seed``
    exactly as before, but the function can now cross a process
    boundary intact (the sharded engine ships programs to workers).
    """
    seed_rng = ensure_rng(seed)
    salt = seed_rng.getrandbits(64).to_bytes(8, "little")
    return SaltedPrf(salt)


def spawn_rng(rng: random.Random, stream: int = 0) -> random.Random:
    """Derive an independent child generator from ``rng``.

    Used when a routine needs several statistically independent streams
    (e.g. one per algorithm level) that must not interleave, so that
    adding draws to one stream does not perturb the others.
    """
    return random.Random((rng.getrandbits(64) << 16) ^ stream)
