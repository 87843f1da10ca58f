"""Persistent content-addressed design store (``repro.store``).

The second tier behind the process-global in-memory
:class:`~repro.core.engine.SynthesisCache`: designs are pickled to
disk under a content address (source digest + entry procedure +
value-level options token + schema version, see
:mod:`~repro.store.keys`) so sweeps survive process restarts — the
CLI, parallel :mod:`repro.exec` workers and a future synthesis
service all warm-start from the same directory.

The store is **off by default**.  It activates when either

* :func:`configure_store` is called (the CLI's ``--store`` /
  ``--no-store`` flags and tests use this), or
* env ``REPRO_STORE_DIR`` names a directory (``REPRO_STORE=0``
  force-disables even then).

``active_store()`` returns the store in force, or None; callers in
:mod:`repro.core.engine` treat None as "memory tier only".  See
``docs/performance.md`` for the two-tier protocol and invalidation
rules, and ``repro cache stats|gc|clear`` for maintenance.
"""

from __future__ import annotations

import os

from .atomic import TMP_PREFIX, atomic_write_bytes
from .keys import STORE_SCHEMA_VERSION, options_token, store_key
from .store import DEFAULT_TMP_GRACE_S, DesignStore

STORE_DIR_ENV = "REPRO_STORE_DIR"
STORE_ENV = "REPRO_STORE"


class Activation:
    """Which instance of an optional on-disk tier (this store, the run
    ledger of :mod:`repro.obs.ledger`) the process uses.

    An explicit :meth:`configure` beats the environment — None turns
    the tier off even when ``dir_env`` is set.  Otherwise env
    ``dir_env`` names the directory (one instance per directory) unless
    ``kill_env`` is ``0``/``off``/``false``/``no``.
    """

    def __init__(self, factory, dir_env: str, kill_env: str,
                 default_dir) -> None:
        self._factory = factory
        self._dir_env = dir_env
        self._kill_env = kill_env
        self._default_dir = default_dir
        self.reset()

    def configure(self, root: str | os.PathLike | None):
        """Set the tier explicitly (None disables it); returns it."""
        self._explicit = self._factory(root) if root is not None else None
        self._explicit_set = True
        return self._explicit

    def reset(self) -> None:
        """Forget any explicit configuration; fall back to the env."""
        self._explicit = None
        self._explicit_set = False
        self._env_memo = None

    def active(self):
        """The instance in force for this process, or None."""
        if self._explicit_set:
            return self._explicit
        if os.environ.get(self._kill_env, "").strip().lower() in (
            "0", "off", "false", "no",
        ):
            return None
        root = os.environ.get(self._dir_env)
        if not root:
            return None
        if self._env_memo is None or self._env_memo[0] != root:
            self._env_memo = (root, self._factory(root))
        return self._env_memo[1]

    def resolve(self, root: str | None = None):
        """What a maintenance verb operates on: ``root``, else the
        active instance, else the default directory's."""
        if root:
            return self._factory(root)
        return self.active() or self._factory(self._default_dir())


def default_store_dir() -> str:
    """Where ``--store`` puts designs absent an explicit directory."""
    return os.environ.get(STORE_DIR_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "designs"
    )


#: The process-global store: ``configure_store`` / ``reset_store`` /
#: ``active_store`` are its methods.
STORE_ACTIVATION = Activation(DesignStore, STORE_DIR_ENV, STORE_ENV,
                              default_store_dir)
configure_store = STORE_ACTIVATION.configure
reset_store = STORE_ACTIVATION.reset
active_store = STORE_ACTIVATION.active


__all__ = [
    "DEFAULT_TMP_GRACE_S",
    "STORE_ACTIVATION",
    "STORE_DIR_ENV",
    "STORE_ENV",
    "STORE_SCHEMA_VERSION",
    "TMP_PREFIX",
    "Activation",
    "DesignStore",
    "active_store",
    "atomic_write_bytes",
    "configure_store",
    "default_store_dir",
    "options_token",
    "reset_store",
    "store_key",
]
