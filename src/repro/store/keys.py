"""Stable content-addressed keys for the persistent design store.

The in-memory :class:`~repro.core.engine.SynthesisCache` keys model and
library objects by *identity* — correct within one process, meaningless
on disk.  The store instead derives a key from value-level tokens:
every behavior-relevant knob of :class:`SynthesisOptions` is rendered
to plain data (``cache_token()`` on the model and library), combined
with the source digest, the entry procedure and
:data:`STORE_SCHEMA_VERSION`, and hashed.  Options whose model or
library cannot produce a stable token (a custom
:class:`~repro.scheduling.ResourceModel` subclass that does not
override ``cache_token``) are simply *unstorable*: :func:`store_key`
returns None and the store tier is bypassed — never a wrong hit.

Invalidation is entirely key-side: changing any knob, the source text,
or the schema version changes the key, so stale entries are never
*read*; they are only ever reclaimed by ``repro cache gc``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import SynthesisOptions

#: Bump whenever the pickled :class:`SynthesizedDesign` layout, the
#: pipeline's deterministic behavior, or this key derivation changes
#: incompatibly.  Old entries become unreachable (each version writes
#: under its own ``v<N>/`` directory) and are reclaimed by gc.
STORE_SCHEMA_VERSION = 7  # v7: blocks pickle their ops' operands and uses


def options_token(options: "SynthesisOptions") -> tuple[Hashable, ...] | None:
    """``options`` as plain data, or None when not stably keyable.

    Mirrors :meth:`SynthesisOptions.cache_key` field for field, with
    the identity-keyed model/library replaced by their value-level
    ``cache_token()``.  ``trace`` and ``fault_spec`` stay excluded for
    the same reason they are excluded from the in-memory key: they
    never change what is synthesized.
    """
    model = options.model
    model_token: tuple | None = (
        ("default-universal",) if model is None else model.cache_token()
    )
    if model_token is None:
        return None
    library = options.library
    library_token: tuple | None = (
        ("default-library",) if library is None else library.cache_token()
    )
    if library_token is None:
        return None
    limits = (
        None
        if options.constraints is None
        else tuple(sorted(options.constraints.limits.items()))
    )
    return (
        options.scheduler,
        options.allocator,
        model_token,
        limits,
        options.optimize_ir,
        options.unroll,
        options.tree_height,
        options.if_conversion,
        options.narrow,
        options.assume_ranges,
        library_token,
        options.verify,
    )


def store_key(source_digest: str, procedure: str | None,
              options: "SynthesisOptions") -> str | None:
    """The design's content address: a sha256 hex digest, or None when
    these options cannot be keyed stably (store bypassed)."""
    token = options_token(options)
    if token is None:
        return None
    payload = repr(
        (STORE_SCHEMA_VERSION, source_digest, procedure, token)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
