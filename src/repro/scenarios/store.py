"""Persistent, content-addressed store for scenario results.

Artifacts are JSON files named ``<scenario>-<fingerprint16>.json`` under the
store root.  The fingerprint is a SHA-1 over

- the scenario's canonical :class:`~repro.scenarios.spec.ScenarioSpec` (every
  declarative field, including overrides and sweep axes),
- the resolved per-run parameters,
- the numerics knobs that are set (the ``affects_numerics`` slice of
  :func:`~repro.core.knobs.repro_env_snapshot`), so a throughput-mode run
  (say ``REPRO_RNG=philox``) can never serve its table to a default-mode run,
- a *code hash* of everything that can change the numbers: the source of every
  module in the ``repro`` package (plus, for externally registered scenarios,
  the module defining the build function) and the package version.

Re-running an unchanged scenario therefore hits the store across processes --
``repro batch`` twice in a row executes zero engine passes the second time --
while any edit to the catalog, a spec field, a parameter, a numerics knob or the
package version misses cleanly and recomputes.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import uuid
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.core.cache import digest
from repro.core.knobs import numeric_knob_names, repro_env_snapshot
from repro.core.knobs import raw_value as _knob_raw
from repro.scenarios.spec import ScenarioResult, ScenarioSpec

#: Environment variable selecting the default store root for the CLI/runner.
#: Declared, like every ``REPRO_*`` knob, in :mod:`repro.core.knobs`.
STORE_ENV_VAR = "REPRO_STORE"

#: Default on-disk location (relative to the current working directory).
DEFAULT_STORE_DIR = ".repro_store"


def default_store_root() -> Path:
    return Path(_knob_raw(STORE_ENV_VAR) or DEFAULT_STORE_DIR)


@lru_cache(maxsize=1)
def _package_source_hash() -> str:
    """SHA-1 over every ``repro`` source file (computed once per process).

    Any edit anywhere in the package -- engine passes, device constants,
    templates, the catalog itself -- must invalidate stored artifacts, so the
    code hash covers the whole package tree, not just the catalog module.
    """
    import repro

    root = Path(repro.__file__).parent
    sources = tuple(
        (str(path.relative_to(root)), path.read_bytes())
        for path in sorted(root.rglob("*.py"))
    )
    return digest("package-source", sources)


@lru_cache(maxsize=None)
def _module_source_hash(module_name: str) -> str:
    """SHA-1 of a module's source text (sentinel hash when the source is hidden)."""
    import importlib

    try:
        module = importlib.import_module(module_name)
        source = inspect.getsource(module)
    except (ImportError, OSError, TypeError):
        return digest("no-source", module_name)
    return digest("module-source", module_name, source)


def scenario_fingerprint(
    spec: ScenarioSpec,
    params: Mapping[str, Any],
    build: Optional[Callable[..., Any]] = None,
) -> str:
    """Content address of one (spec, params, numerics knobs, code) combination."""
    from repro import __version__

    numeric = set(numeric_knob_names())
    numerics_env = {
        name: raw for name, raw in repro_env_snapshot().items() if name in numeric
    }

    code_parts: List[str] = [__version__, _package_source_hash()]
    if build is not None:
        # Covers build functions registered from outside the repro package
        # (e.g. project-local scenario catalogs).
        module_name = getattr(build, "__module__", None)
        if module_name and not module_name.startswith("repro."):
            code_parts.append(_module_source_hash(module_name))
    return digest("scenario", spec, dict(params), numerics_env, tuple(code_parts))


class ResultStore:
    """Directory of content-addressed scenario-result artifacts."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    def path_for(self, name: str, fingerprint: str) -> Path:
        return self.root / f"{name}-{fingerprint[:16]}.json"

    # -- read ------------------------------------------------------------------------
    def load(self, name: str, fingerprint: str) -> Optional[ScenarioResult]:
        """The stored result for this exact fingerprint, or None on a miss."""
        path = self.path_for(name, fingerprint)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("fingerprint") != fingerprint:
            return None  # truncated-prefix collision; treat as a miss
        return ScenarioResult.from_payload(payload)

    def entries(self) -> List[Dict[str, Any]]:
        """Metadata of every artifact in the store, newest first."""
        if not self.root.is_dir():
            return []
        records = []
        for path in sorted(self.root.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            records.append(
                {
                    "name": payload.get("name", path.stem),
                    "fingerprint": payload.get("fingerprint", ""),
                    "created_at": payload.get("created_at", ""),
                    "elapsed_s": payload.get("elapsed_s", 0.0),
                    "params": payload.get("params", {}),
                    "path": path,
                    "table": payload.get("table", ""),
                }
            )
        records.sort(key=lambda r: r["created_at"], reverse=True)
        return records

    # -- write -----------------------------------------------------------------------
    def save(self, result: ScenarioResult) -> Path:
        """Persist ``result`` atomically (write-then-rename) and return its path.

        The temp name embeds the writer's pid plus a uuid, so concurrent
        writers -- threads or worker processes saving the same artifact -- each
        stage into a private file and the final ``os.replace`` publishes one
        complete payload (last rename wins); readers never observe a torn file.
        """
        if not result.name or not result.fingerprint:
            raise ValueError("result must carry a scenario name and fingerprint")
        self.root.mkdir(parents=True, exist_ok=True)
        payload = result.to_payload()
        payload["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        path = self.path_for(result.name, result.fingerprint)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(root={str(self.root)!r})"
