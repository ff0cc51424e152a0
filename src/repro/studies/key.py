"""Content-addressed identities for Monte Carlo studies.

A *study* is one (model, strategy, horizon, cost model, seed, n_runs,
confidence) request for simulated KPIs.  Two requests that canonicalize
to the same :class:`StudyKey` are guaranteed to produce bit-identical
results, because every input that influences the child RNG streams or
the KPI aggregation is part of the canonical material — which is what
makes memoization and the disk cache safe.

The canonical form is a deterministic text rendering (`canonical`)
rather than a pickle: pickles are not stable across interpreter runs
for sets/dicts and would tie cache validity to import paths.  Floats
render via ``repr``, which in Python 3 is the shortest round-tripping
decimal — two floats share a rendering iff they are the same bits.

A ``CODE_SALT`` derived from the package version is folded into every
key so a release that changes simulation semantics silently invalidates
old disk entries instead of serving stale results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional

from repro._version import __version__

__all__ = ["StudyKey", "canonical", "study_material", "CODE_SALT"]

#: Bump the format component when the canonical rendering, the cached
#: value layout, or the simulated results of an unchanged request
#: change; the package version covers release-level semantic changes.
#: v2: the vectorized kernel runs one even chunk plan seeded per chunk
#: (its results changed), and the material always names the kernel.
_FORMAT_VERSION = 2

CODE_SALT = f"repro-{__version__}/studies-v{_FORMAT_VERSION}"

#: What ``json.dumps`` renders a ``str`` with (its default ensure_ascii).
_encode_str = json.encoder.encode_basestring_ascii


def canonical(obj: Any) -> str:
    """Deterministic canonical rendering of a study ingredient.

    Supports the value types that appear in study requests: scalars,
    sequences, mappings, dataclasses, and model objects exposing
    ``to_dict()`` (trees, maintenance modules, actions).  Mapping
    entries are sorted, so insertion order never leaks into the key.

    Raises
    ------
    TypeError
        For objects with no canonical form — better a loud failure
        than a cache key that silently aliases distinct studies.
    """
    # Exact-type fast paths for the bulk of a model's material; each
    # renders what its general branch below renders.  Subclasses (bool,
    # numpy floats, ...) fall through to the general branches.
    kind = type(obj)
    if kind is str:
        return "str:" + _encode_str(obj)
    if kind is float:
        return f"float:{obj!r}"
    if kind is int:
        return f"int:{obj:d}"
    if kind is dict:
        entries = sorted(
            [(canonical(key), canonical(value)) for key, value in obj.items()]
        )
        return "{" + ",".join([f"{k}:{v}" for k, v in entries]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([canonical(item) for item in obj]) + "]"
    if obj is None:
        return "none"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return f"int:{obj:d}"
    if isinstance(obj, float):
        # float() unboxes numpy float subclasses, whose repr would
        # otherwise render as "np.float64(...)" and fracture the key.
        return f"float:{float(obj)!r}"
    if isinstance(obj, str):
        return f"str:{json.dumps(obj)}"
    if isinstance(obj, bytes):
        return f"bytes:{obj.hex()}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(item) for item in obj)) + "}"
    if isinstance(obj, dict):
        entries = sorted(
            (canonical(key), canonical(value)) for key, value in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in entries) + "}"
    # Model objects (trees, modules, actions, dependencies) serialize
    # themselves; their dict form is the canonical description.
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return f"{type(obj).__name__}:{canonical(to_dict())}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return f"{type(obj).__name__}:{canonical(fields)}"
    # Numpy scalars and other boxed numbers.
    item = getattr(obj, "item", None)
    if callable(item):
        return canonical(obj.item())
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a study key"
    )


def strategy_signature(strategy: Any) -> str:
    """Canonical form of a maintenance strategy, cosmetics excluded.

    ``name`` and ``description`` are display-only — the simulator never
    reads them — so they must not fracture the key: the experiments
    deliberately evaluate the same physical policy under different
    labels (``current-policy`` vs ``inspect-4x``) and should share one
    cached study.
    """
    if strategy is None:
        return "none"
    return canonical(
        {
            "inspections": strategy.inspections,
            "repairs": strategy.repairs,
            "on_system_failure": strategy.on_system_failure,
            "system_repair_time": strategy.system_repair_time,
        }
    )


def study_material(
    tree: Any,
    strategy: Any,
    horizon: float,
    cost_model: Any,
    seed: int,
    n_runs: int,
    confidence: float,
    record_events: bool,
    kernel: str = "object",
    chunk_trajectories: Optional[int] = None,
) -> str:
    """The full canonical material of one study request.

    The material holds exactly what determines the results.  The
    sampling kernel is always part of it: the vectorized kernel draws
    its random variates in a different order, so its results must not
    alias the object engine's cache entries.  ``chunk_trajectories``
    is part of it exactly when ``kernel == "vectorized"`` (and is then
    required): the vectorized kernel draws one RNG stream per chunk of
    its chunk plan, so the chunk cap changes its trajectories, while
    the object engine never reads it.
    """
    material = {
        "salt": CODE_SALT,
        "model": tree,
        "strategy": strategy_signature(strategy),
        "horizon": float(horizon),
        "cost_model": cost_model,
        "seed": int(seed),
        "n_runs": int(n_runs),
        "confidence": float(confidence),
        "record_events": bool(record_events),
        "kernel": str(kernel),
    }
    if kernel == "vectorized":
        if chunk_trajectories is None:
            raise ValueError("a vectorized study needs chunk_trajectories")
        material["chunk_trajectories"] = int(chunk_trajectories)
    return canonical(material)


@dataclasses.dataclass(frozen=True)
class StudyKey:
    """Content address of one study artifact.

    ``digest`` is the SHA-256 of ``material`` and names the cache file;
    ``material`` rides along so a (vanishingly unlikely) digest
    collision — or a garbage file that happens to unpickle — is caught
    by exact comparison instead of being served as a hit.
    """

    digest: str
    material: str

    @classmethod
    def from_material(cls, material: str) -> "StudyKey":
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
        return cls(digest=digest, material=material)

    def derive(self, artifact: str, extra: Any = None) -> "StudyKey":
        """A sub-key for a derived artifact of this study.

        The summary, a reliability curve on a particular grid, and a
        named trajectory statistic are distinct artifacts of the same
        simulation; each gets its own content address so they can be
        cached independently.
        """
        material = canonical(
            {"base": self.material, "artifact": artifact, "extra": extra}
        )
        return StudyKey.from_material(material)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"StudyKey({self.digest[:12]}...)"
