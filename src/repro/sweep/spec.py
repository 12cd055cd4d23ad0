"""Declarative sweep specifications and their deterministic expansion.

A sweep spec is a plain JSON document describing a full experiment
grid — the paper-scale matrices (Fig. 7 is scenario x topology, the
ez-Segway evaluation sweeps seeds per topology) as one file::

    {
      "name": "smoke",
      "kind": "experiment",
      "systems": ["p4update-sl", "p4update-dl", "ezsegway"],
      "topologies": ["fig1", "six_node"],
      "scenarios": ["single"],
      "seeds": 2,
      "params": {"max_sim_time_ms": 60000.0}
    }

:func:`SweepSpec.expand` flattens the grid into an ordered list of
:class:`Shard` work units.  The contract that makes fleets resumable
and worker-count-independent:

* **Deterministic order** — shards are numbered from 0 in the order
  the spec's kind expands them (for an experiment grid: the cartesian
  product scenario x topology x seed index x system).  Same spec, same
  shard list, always.
* **Stable identity** — :func:`spec_hash` is the SHA-256 of the
  canonical spec JSON; the on-disk shard cache is keyed by
  ``(spec_hash, shard_id)``, so editing a spec invalidates its cache.
* **Stable seeds** — each shard's seed comes from
  :func:`derive_shard_seed`, a SHA-256 over (spec seed, scenario,
  topology, seed index).  The *system* axis is deliberately excluded:
  every system in one grid cell sees the identical workload, which is
  the paper's paired experiment design.

A spec is the generic fields (``name``, ``kind``, ``seed``,
``description``, ``obs``) plus the **body**: the fields its kind
declares (:class:`repro.sweep.kinds.SweepKind`).  Validation,
expansion, execution and aggregation of the body all belong to the
kind; this module only enforces the declared field set and shapes.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.loading import read_json_object, require_object, spec_digest
from repro.sweep.kinds import DEFAULT_KIND, KIND_TABLE, ShardPlan, resolve_kind

#: Spec fields every kind shares; the rest of a document is its body.
GENERIC_FIELDS = ("name", "kind", "seed", "description", "obs")


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


@dataclass(frozen=True)
class Shard:
    """One unit of fleet work (for an experiment grid: a single
    (cell, seed, system) run)."""

    index: int
    shard_id: str           # "s0007" — stable, sortable
    kind: str               # the spec's kind
    key: dict               # the axis values selecting this shard
    seed: int               # derived per-shard seed (see module doc)
    payload: dict = field(repr=False)  # everything the worker needs

    def describe(self) -> str:
        axes = " ".join(f"{k}={v}" for k, v in sorted(self.key.items()))
        return f"{self.shard_id} seed={self.seed} {axes}"


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep description (see module docstring)."""

    name: str
    kind: str = DEFAULT_KIND
    seed: int = 0
    description: str = ""
    obs: bool = False
    #: The kind's own fields, defaults filled in, in JSON shape.
    body: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepSpecError("sweep spec needs a non-empty 'name'")
        if self.kind not in KIND_TABLE:
            raise SweepSpecError(
                f"unknown sweep kind {self.kind!r}; "
                f"expected one of {tuple(KIND_TABLE)}"
            )
        kind = resolve_kind(self.kind)
        unknown = sorted(set(self.body) - set(kind.fields))
        if unknown:
            raise SweepSpecError(
                f"unknown sweep spec field(s) {unknown} "
                f"for kind {self.kind!r}"
            )
        object.__setattr__(self, "body", {
            name: _coerce(name, default, self.body.get(name, default))
            for name, default in kind.fields.items()
        })
        kind.validate(self)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            name: getattr(self, name) for name in GENERIC_FIELDS
        }
        doc.update((name, _copy(value)) for name, value in self.body.items())
        return doc

    def spec_hash(self) -> str:
        """SHA-256 of the canonical spec JSON — the cache key."""
        return spec_digest(self.to_dict())

    # -- expansion ---------------------------------------------------------

    def expand(self) -> list[Shard]:
        """The full, ordered shard list for this spec."""
        shards = []
        plans = resolve_kind(self.kind).expand(self)
        for index, (key, seed, payload) in enumerate(plans):
            shard_id = f"s{index:04d}"
            payload = dict(
                payload, kind=self.kind, obs=self.obs,
                shard_id=shard_id, index=index, key=key,
            )
            shards.append(Shard(
                index=index, shard_id=shard_id, kind=self.kind,
                key=key, seed=seed, payload=payload,
            ))
        return shards


def _copy(value: Any) -> Any:
    if isinstance(value, list):
        return list(value)
    return dict(value) if isinstance(value, dict) else value


def _coerce(name: str, default: Any, value: Any) -> Any:
    """One body value in its declared field's JSON shape (a copy, so a
    spec never aliases its input document or the kind's defaults)."""
    if isinstance(default, list):
        if name == "seeds" and type(value) is int:
            return list(range(value))       # ``"seeds": N`` means 0..N-1
        if not isinstance(value, (list, tuple)):
            raise SweepSpecError(
                f"sweep spec field {name!r} must be a list, "
                f"got {type(value).__name__}"
            )
        if name == "seeds":
            try:
                return [int(seed) for seed in value]
            except (TypeError, ValueError):
                raise SweepSpecError(
                    "sweep spec field 'seeds' must be a count or a list "
                    "of integers"
                ) from None
        return list(value)
    if default is None or isinstance(default, dict):
        if value is not None and not isinstance(value, dict):
            raise SweepSpecError(
                f"sweep spec field {name!r} must be an object, "
                f"got {type(value).__name__}"
            )
    return _copy(value)


def derive_shard_seed(
    spec_seed: int, scenario: str, topology: str, seed_index: int
) -> int:
    """Stable per-cell seed: SHA-256, not ``hash()`` (which is salted
    per process), over the workload-defining axes.  The system axis is
    excluded so paired comparisons share workloads."""
    material = f"{spec_seed}|{scenario}|{topology}|{seed_index}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


# -- the "embedded spec x seeds [x one axis]" kinds ------------------------------
#
# Several kinds run one embedded spec document as seeded replicas,
# optionally fanned across one more axis whose values share each seed's
# workload.  They differ only in which body field embeds the spec, the
# seed-derivation tag and the key label.


def validate_replicas(
    spec: SweepSpec,
    embedded: str,
    load: Callable[[dict], Any],
    error: type[Exception],
) -> None:
    """The ``embedded`` object must be present and load cleanly, and
    the ``seeds`` axis must be non-empty."""
    if spec.body[embedded] is None:
        raise SweepSpecError(
            f"{spec.kind} sweep needs the {embedded!r} object"
        )
    if not spec.body["seeds"]:
        raise SweepSpecError(f"{spec.kind} sweep has an empty seeds axis")
    try:
        load(dict(spec.body[embedded]))
    except error as exc:
        raise SweepSpecError(f"invalid {embedded} spec: {exc}") from None


def replica_shards(
    spec: SweepSpec,
    embedded: str,
    tag: str,
    label: str,
    topology: str,
    axis: Optional[tuple[str, str]] = None,
) -> Iterator[ShardPlan]:
    """One shard per ``seeds`` entry, times each value of the optional
    ``axis = (body field, key name)``.

    The derived seed covers ``(spec seed, tag, topology, seed index)``
    only — never the extra axis — so every axis value in one seed cell
    replays the identical workload.  ``tag`` keeps fleets of different
    kinds with the same spec seed on separate RNG streams.
    """
    doc = dict(spec.body[embedded])
    name = doc.get("name", spec.name)
    values = spec.body[axis[0]] if axis else [None]
    for seed_index, value in itertools.product(spec.body["seeds"], values):
        seed = derive_shard_seed(spec.seed, tag, topology, seed_index)
        key = {"seed_index": seed_index, label: name}
        payload = {embedded: doc, "seed": seed}
        if axis:
            key[axis[1]] = payload[axis[1]] = value
        yield key, seed, payload


def load_sweep_spec(data: dict) -> SweepSpec:
    """Build a spec from a plain (JSON-decoded) dict."""
    require_object(data, "sweep spec", SweepSpecError)
    generic = {name: data[name] for name in GENERIC_FIELDS if name in data}
    body = {name: value for name, value in data.items() if name not in generic}
    try:
        return SweepSpec(body=body, **generic)
    except TypeError as exc:
        raise SweepSpecError(str(exc)) from None


def load_sweep_spec_file(path: str) -> SweepSpec:
    return load_sweep_spec(read_json_object(path, "sweep spec", SweepSpecError))
