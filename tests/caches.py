"""Emptying the identity caches between the steps of a test."""

from peirce_lab import identities


def clear_identity_caches():
    """Clear every functools cache of peirce_lab.identities, found by its
    cache_clear, so that a cache added or renamed there is cleared too."""
    for value in vars(identities).values():
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()
