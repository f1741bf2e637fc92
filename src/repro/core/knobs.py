"""Central registry of every ``REPRO_*`` environment knob.

Environment knobs are the repo's third implicit contract surface (next to
bit-identical backends and fingerprint-complete memoization): a knob that
changes numerics but is read ad hoc from ``os.environ`` can silently skew a
process or cluster worker whose shell exports a different value than the
coordinator that encoded the task; this module makes the fix for that bug
class structural.  Knobs are for numerics modes and execution plumbing
(store, pools, shm, cluster endpoints); a scenario's parameters -- its trial
count, backend and worker count among them -- are ``--param`` overrides,
never environment knobs.

Every knob is declared **here, once**, as a :class:`Knob` record (name, type,
default, choices, whether it affects numerics), and every runtime read of a
``REPRO_*`` variable goes through :func:`raw_value`/:func:`value` -- the only
sanctioned ``os.environ`` access points for the prefix.  Two properties follow
by construction:

- :func:`repro_env_snapshot` (what ``ships_tasks`` backends pin into task
  encodings so workers replay the coordinator's environment) is derived from
  the registry, not from a hand-maintained list -- a newly registered knob can
  never be forgotten from the snapshot;
- the ``repro lint`` static-analysis rule **R003** can cross-check the code
  against the registry: raw ``os.environ["REPRO_..."]`` reads outside this
  module and unregistered ``REPRO_*`` literals are build failures.

The module depends on nothing inside ``repro`` so any layer (device models up
to the CLI) can import it without cycles.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

#: Every environment knob the repro engine reads shares this prefix;
#: task-shipping backends snapshot the whole prefix so worker behaviour is a
#: function of the task encoding, not of the worker's inherited shell.
REPRO_ENV_PREFIX = "REPRO_"

#: Declared knob value types and their coercions from the raw string.
_KNOB_TYPES: Dict[str, Any] = {"str": str, "int": int, "float": float}


@dataclass(frozen=True)
class Knob:
    """One declared ``REPRO_*`` environment knob.

    ``affects_numerics`` marks knobs whose value can change computed results
    (numerics modes such as ``REPRO_DTYPE``) as opposed to pure execution
    shape (worker counts, endpoints, store paths).  Numeric knobs MUST reach
    workers through the task-encoding snapshot; :func:`repro_env_snapshot`
    guarantees that by deriving from this registry.
    """

    name: str
    type: str = "str"
    default: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    affects_numerics: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.startswith(REPRO_ENV_PREFIX):
            raise ValueError(
                f"knob names must start with {REPRO_ENV_PREFIX!r}, got {self.name!r}"
            )
        if self.type not in _KNOB_TYPES:
            raise ValueError(
                f"knob {self.name}: type must be one of {sorted(_KNOB_TYPES)}, "
                f"got {self.type!r}"
            )
        if self.choices is not None and self.default is not None:
            if self.default not in self.choices:
                raise ValueError(
                    f"knob {self.name}: default {self.default!r} not in "
                    f"choices {self.choices}"
                )

    def coerce(self, raw: str) -> Any:
        """``raw`` as this knob's declared type (choices validated for str knobs)."""
        try:
            value = _KNOB_TYPES[self.type](raw)
        except ValueError:
            raise ValueError(
                f"{self.name} must parse as {self.type}, got {raw!r}"
            ) from None
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"{self.name} must be one of {', '.join(self.choices)}, got {value!r}"
            )
        return value


_REGISTRY_LOCK = threading.Lock()
_REGISTRY: Dict[str, Knob] = {}


def register(
    name: str,
    *,
    type: str = "str",
    default: Optional[str] = None,
    choices: Optional[Tuple[str, ...]] = None,
    affects_numerics: bool = False,
    description: str = "",
) -> Knob:
    """Declare a knob.  Idempotent for identical declarations; conflicts raise."""
    knob = Knob(
        name=name,
        type=type,
        default=default,
        choices=choices,
        affects_numerics=affects_numerics,
        description=description,
    )
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(name)
        if existing is not None and existing != knob:
            raise ValueError(
                f"knob {name} already registered with a different declaration"
            )
        _REGISTRY[name] = knob
    return knob


def get(name: str) -> Knob:
    """The declared knob, or an actionable ``KeyError`` naming the registry."""
    with _REGISTRY_LOCK:
        knob = _REGISTRY.get(name)
    if knob is None:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown knob {name!r}; registered knobs: {known} "
            "(declare new knobs in repro/core/knobs.py)"
        )
    return knob


def is_registered(name: str) -> bool:
    with _REGISTRY_LOCK:
        return name in _REGISTRY


def all_knobs() -> Tuple[Knob, ...]:
    """Every declared knob, sorted by name (a stable, documentation-ready view)."""
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def knob_names() -> Tuple[str, ...]:
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def numeric_knob_names() -> Tuple[str, ...]:
    """Names of every knob whose value can change computed results."""
    return tuple(knob.name for knob in all_knobs() if knob.affects_numerics)


def raw_value(name: str) -> Optional[str]:
    """The raw environment string of a registered knob (``None`` when unset).

    This function (with :func:`value` and :func:`repro_env_snapshot`) is the
    only sanctioned ``os.environ`` read path for ``REPRO_*`` variables --
    lint rule R003 flags reads anywhere else.
    """
    return os.environ.get(get(name).name)


def value(name: str) -> Any:
    """The knob's effective typed value: environment, else declared default."""
    knob = get(name)
    raw = os.environ.get(knob.name)
    if raw is None:
        raw = knob.default
    if raw is None:
        return None
    return knob.coerce(raw)


@contextlib.contextmanager
def forced_env(name: str, forced: str) -> Iterator[None]:
    """Pin a registered knob in the environment for the block.

    The previous value (or absence) is restored on exit.  Used by tests to
    flip modes without leaking state into later code.
    """
    knob = get(name)
    previous = os.environ.get(knob.name)
    os.environ[knob.name] = forced
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(knob.name, None)
        else:
            os.environ[knob.name] = previous


def repro_env_snapshot() -> Dict[str, str]:
    """The ``REPRO_*`` environment to pin into task encodings, registry-derived.

    Every *registered* knob that is set contributes its entry -- so a numerics
    knob can never be forgotten from the snapshot -- and any unregistered
    ``REPRO_*`` variable is still captured as a safety net (lint rule R003
    reports it as a registry gap rather than letting it skew workers).
    """
    snapshot = {
        knob.name: raw
        for knob in all_knobs()
        if (raw := os.environ.get(knob.name)) is not None
    }
    for key, raw in os.environ.items():
        if key.startswith(REPRO_ENV_PREFIX) and key not in snapshot:
            snapshot[key] = raw
    return snapshot


# -- the declarations ------------------------------------------------------------------
# One block, one source of truth: the R003 registry cross-check covers every
# REPRO_* literal in the package against these declarations.

register(
    "REPRO_DTYPE",
    default="float64",
    choices=("float64", "float32"),
    affects_numerics=True,
    description="Trial-batched compute precision; float32 is the opt-in "
    "throughput mode.",
)
register(
    "REPRO_STORE",
    description="Result-store directory for the repro CLI and batch runner.",
)
register(
    "REPRO_POOL",
    default="cold",
    choices=("warm", "cold"),
    description="Process-pool lifecycle: cold (default) builds and tears down "
    "a pool per session, warm keeps a named reusable pool alive across "
    "dispatches until it idles out or the process exits.",
)
register(
    "REPRO_POOL_IDLE_S",
    type="float",
    default="300",
    description="Seconds a warm process pool may sit idle before it is reaped.",
)
register(
    "REPRO_SHM",
    default="on",
    choices=("on", "off"),
    description="Shared-memory payload transport for task-shipping backends: "
    "large round contexts are published once per host and task encodings "
    "carry content-addressed handles instead of pickled copies.",
)
register(
    "REPRO_CACHE_MAX_ENTRIES",
    type="int",
    description="LRU entry cap of the evaluation cache (unset = unbounded); "
    "evictions recompute deterministically, so results never change.",
)
register(
    "REPRO_CLUSTER_HOST",
    description="Cluster coordinator bind/connect host (default 127.0.0.1).",
)
register(
    "REPRO_CLUSTER_PORT",
    type="int",
    description="Cluster coordinator port (default 7621; 0 binds ephemeral).",
)
register(
    "REPRO_CLUSTER_WORKERS",
    type="int",
    description="Workers the cluster backend waits for before dispatching.",
)
register(
    "REPRO_CLUSTER_WAIT_S",
    type="float",
    description="Seconds to wait for the cluster worker fleet to assemble.",
)
