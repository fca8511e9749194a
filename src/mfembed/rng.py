"""Deterministic seed derivation for independent random streams.

Every randomized routine takes either a seed or a `random.Random`. Each
stream's seed comes from `derive_seed` with a stream id naming its use: a
split of the embedder's recursion, by its recursion path (the split's
carving radii, then its cut choice); an experiment run; the pair sample;
the HST fallback; a component of a disconnected input. So results are
reproducible and independent of scheduling.
"""

import hashlib


def derive_seed(master: int, *parts) -> int:
    """Derive a 63-bit child seed from a master seed and a stream id.

    The stream id may mix ints and short strings, e.g.
    ``derive_seed(seed, "split", 2, 0, 1)``.
    """
    key = repr((int(master),) + tuple(parts)).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1
