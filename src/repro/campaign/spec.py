"""Declarative campaign scenario specs: schema, loader, canonical keys.

A *campaign spec* is a plain dict (usually loaded from a TOML or JSON
file) that describes one experiment family as data::

    [campaign]
    name = "hidden_terminal"

    [scenario]
    builder = "hidden_terminal"     # repro.campaign.runner registry
    horizon = 0.5                   # measured sim-seconds
    seed = 11                       # base seed

    [scenario.params]               # builder-specific knobs
    rts_threshold_bytes = 2347

    [traffic]
    kind = "saturate"               # saturate | cbr | none
    payload_bytes = 1000

    [mode]
    kernel = "auto"                 # auto | python | c

    [sweep]                         # cartesian axes, by spec path
    "scenario.params.rts_threshold_bytes" = [2347, 256]

    [seeds]
    count = 3                       # seed, seed+1, seed+2

Validation is *by spec path*: every error names the exact location
(``scenario.params.stations``) plus the source file when the spec came
from disk, so a typo in a 40-line TOML file is a one-line fix, not an
archaeology session.

The *canonical form* of a fully-concrete job spec (one sweep point, one
seed) is a sorted-key, compact JSON encoding with floats rendered via
``repr`` — the same byte-comparable convention the telemetry exporter
uses.  Its sha1 is the job's content-addressed identity: the resumable
manifest and the result store key every job by it, so "has this exact
configuration already run?" is a dictionary lookup, never a guess.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.engine import KERNELS
from ..core.errors import ConfigurationError

__all__ = ["SpecError", "load_spec", "validate_spec", "canonical_json",
           "spec_sha1", "get_path", "set_path", "SCHEMA_DOC"]


class SpecError(ConfigurationError):
    """A campaign spec failed validation.

    ``path`` is the dotted spec path of the offending value (e.g.
    ``scenario.params.stations``); ``source`` names the file the spec
    was loaded from, when there was one.
    """

    def __init__(self, path: str, message: str,
                 source: Optional[str] = None):
        self.path = path
        self.source = source
        self.message = message
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}{path}: {message}")


# --- schema tables ----------------------------------------------------------

#: Scenario builders the runner knows how to execute, with the params
#: each accepts (value = (type, default) — None default means optional
#: with the builder's own fallback).  Kept here, next to the validator,
#: so an unknown-param error can say what *would* be accepted.
BUILDER_PARAMS: Dict[str, Dict[str, type]] = {
    "infrastructure_bss": {
        "stations": int, "radius_m": float, "path_loss_exponent": float,
        "rts_threshold_bytes": int, "standard": str,
    },
    "hidden_terminal": {
        "rts_threshold_bytes": int, "carrier_range_m": float,
    },
    "mesh_chain": {
        "nodes": int, "spacing_m": float, "range_m": float,
        "protocol": str, "warmup": float, "source": int,
        "destination": int,
    },
    "mesh_grid": {
        "rows": int, "cols": int, "spacing_m": float, "range_m": float,
        "protocol": str, "warmup": float, "source": int,
        "destination": int,
    },
    "interference_field": {
        "stations": int, "emitters": int, "radius_m": float,
        "emitter_ring_m": float, "emitter_power_dbm": float,
        "emitter_on_time": float, "emitter_period": float,
        "path_loss_exponent": float,
    },
    "city_cells": {
        "bss_count": int, "stations_per_bss": int, "spacing_m": float,
        "payload_size": int,
    },
}

#: Adversary kinds attachable to any medium-bearing scenario, with
#: their accepted parameters.  ``position`` ([x, y, z]) is implicit and
#: required for every kind; ``start`` (sim-seconds, default 0) is
#: implicit and optional.
ADVERSARY_PARAMS: Dict[str, Dict[str, type]] = {
    "periodic_jammer": {"power_dbm": float, "on_time": float,
                        "period": float, "offset": float,
                        "channel_id": int},
    "constant_jammer": {"power_dbm": float, "burst_duration": float,
                        "channel_id": int},
    "reactive_jammer": {"power_dbm": float, "burst_duration": float,
                        "turnaround": float, "channel_id": int},
    "bluetooth_hopper": {"power_dbm": float, "tx_probability": float,
                         "channel_id": int},
    "microwave_oven": {"power_dbm": float, "mains_hz": float,
                       "channels": list},
}

TRAFFIC_KINDS = ("saturate", "cbr", "none")
TRAFFIC_PARAMS: Dict[str, type] = {
    "kind": str, "payload_bytes": int, "interval": float, "depth": int,
}

_TOP_LEVEL = ("campaign", "scenario", "traffic", "adversaries", "mode",
              "sweep", "seeds")

SCHEMA_DOC = """\
campaign.name        str   campaign identity (store/manifest file stem)
scenario.builder     str   one of: %s
scenario.horizon     float measured sim-seconds (> 0)
scenario.seed        int   base seed
scenario.params.*          builder-specific knobs (validated per builder)
traffic.kind         str   saturate | cbr | none
traffic.payload_bytes int  per-packet payload
traffic.interval     float cbr inter-packet gap (cbr only)
traffic.depth        int   saturate prime depth (saturate only)
adversaries          list  [{kind, position=[x,y,z], start, ...params}]
mode.kernel          str   auto | python | c
sweep.<spec.path>    list  cartesian axis over any scalar spec path
seeds.count          int   seed ensemble: seed .. seed+count-1
seeds.list           list  explicit seed ensemble (overrides count)
""" % ", ".join(sorted(BUILDER_PARAMS))


# --- loading ----------------------------------------------------------------

def load_spec(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Load and validate a spec file (TOML by default, JSON by suffix)."""
    path = pathlib.Path(path)
    source = path.name
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError("(file)", f"cannot read spec: {exc}", source=source)
    if path.suffix == ".json":
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise SpecError("(file)", f"invalid JSON: {exc}", source=source)
    else:
        import tomllib
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError("(file)", f"invalid TOML: {exc}", source=source)
    return validate_spec(raw, source=source)


def _require(table: Dict[str, Any], path: str, key: str, kind,
             source: Optional[str]) -> Any:
    if key not in table:
        raise SpecError(f"{path}.{key}", "required key is missing",
                        source=source)
    return _typed(table[key], f"{path}.{key}", kind, source)


def _typed(value: Any, path: str, kind, source: Optional[str]) -> Any:
    # bool is an int subclass; an accidental `stations = true` must not
    # slip through the int check.
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(path, f"expected a number, got {value!r}",
                            source=source)
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(path, f"expected an integer, got {value!r}",
                            source=source)
        return value
    if not isinstance(value, kind):
        raise SpecError(path, f"expected {kind.__name__}, got {value!r}",
                        source=source)
    return value


def _check_unknown(table: Dict[str, Any], path: str,
                   allowed: Sequence[str], source: Optional[str]) -> None:
    for key in table:
        if key not in allowed:
            raise SpecError(f"{path}.{key}",
                            f"unknown key; expected one of "
                            f"{sorted(allowed)}", source=source)


def _validate_params(params: Dict[str, Any], path: str, builder: str,
                     source: Optional[str]) -> Dict[str, Any]:
    allowed = BUILDER_PARAMS[builder]
    out = {}
    for key, value in params.items():
        if key not in allowed:
            raise SpecError(f"{path}.{key}",
                            f"unknown parameter for builder {builder!r}; "
                            f"accepted: {sorted(allowed)}", source=source)
        out[key] = _typed(value, f"{path}.{key}", allowed[key], source)
    return out


def _validate_traffic(table: Dict[str, Any], source: Optional[str]
                      ) -> Dict[str, Any]:
    _check_unknown(table, "traffic", tuple(TRAFFIC_PARAMS), source)
    out = {key: _typed(value, f"traffic.{key}", TRAFFIC_PARAMS[key], source)
           for key, value in table.items()}
    kind = out.setdefault("kind", "saturate")
    if kind not in TRAFFIC_KINDS:
        raise SpecError("traffic.kind",
                        f"unknown kind {kind!r}; expected one of "
                        f"{list(TRAFFIC_KINDS)}", source=source)
    if kind == "cbr" and "interval" in out and out["interval"] <= 0:
        raise SpecError("traffic.interval", "must be positive",
                        source=source)
    return out


def _validate_adversary(entry: Any, path: str, source: Optional[str]
                        ) -> Dict[str, Any]:
    entry = _typed(entry, path, dict, source)
    kind = _require(entry, path, "kind", str, source)
    if kind not in ADVERSARY_PARAMS:
        raise SpecError(f"{path}.kind",
                        f"unknown adversary kind {kind!r}; available: "
                        f"{sorted(ADVERSARY_PARAMS)}", source=source)
    position = _require(entry, path, "position", list, source)
    if len(position) != 3 or any(
            isinstance(c, bool) or not isinstance(c, (int, float))
            for c in position):
        raise SpecError(f"{path}.position",
                        f"expected [x, y, z] numbers, got {position!r}",
                        source=source)
    allowed = ADVERSARY_PARAMS[kind]
    out: Dict[str, Any] = {"kind": kind,
                           "position": [float(c) for c in position]}
    for key, value in entry.items():
        if key in ("kind", "position"):
            continue
        if key == "start":
            out["start"] = _typed(value, f"{path}.start", float, source)
            if out["start"] < 0:
                raise SpecError(f"{path}.start", "must be >= 0",
                                source=source)
            continue
        if key not in allowed:
            raise SpecError(f"{path}.{key}",
                            f"unknown parameter for {kind!r}; accepted: "
                            f"{sorted(allowed) + ['start']}", source=source)
        if allowed[key] is list:
            out[key] = _typed(value, f"{path}.{key}", list, source)
        else:
            out[key] = _typed(value, f"{path}.{key}", allowed[key], source)
    return out


def validate_spec(raw: Any, source: Optional[str] = None) -> Dict[str, Any]:
    """Validate + normalize a raw spec dict.

    Returns a fresh normalized dict (defaults filled in, numbers
    coerced to float where the schema says float).  Raises
    :class:`SpecError` naming the offending spec path on the first
    problem found.
    """
    raw = _typed(raw, "(root)", dict, source)
    if "differential" in raw:
        raise SpecError("differential", "section removed: compare two "
                        "stores with repro.analysis.campaign."
                        "differential_gate", source=source)
    _check_unknown(raw, "(root)", _TOP_LEVEL, source)

    campaign = _typed(raw.get("campaign", {}), "campaign", dict, source)
    _check_unknown(campaign, "campaign", ("name",), source)
    name = _require(campaign, "campaign", "name", str, source)
    if not name or "/" in name or name != name.strip():
        raise SpecError("campaign.name",
                        f"must be a clean identifier, got {name!r}",
                        source=source)

    scenario = _typed(raw.get("scenario", {}), "scenario", dict, source)
    _check_unknown(scenario, "scenario",
                   ("builder", "horizon", "seed", "params"), source)
    builder = _require(scenario, "scenario", "builder", str, source)
    if builder not in BUILDER_PARAMS:
        raise SpecError("scenario.builder",
                        f"unknown builder {builder!r}; available: "
                        f"{sorted(BUILDER_PARAMS)}", source=source)
    horizon = _require(scenario, "scenario", "horizon", float, source)
    if horizon <= 0:
        raise SpecError("scenario.horizon",
                        f"must be positive sim-seconds, got {horizon}",
                        source=source)
    seed = _typed(scenario.get("seed", 0), "scenario.seed", int, source)
    params = _typed(scenario.get("params", {}), "scenario.params", dict,
                    source)
    params = _validate_params(params, "scenario.params", builder, source)

    traffic = _validate_traffic(
        _typed(raw.get("traffic", {}), "traffic", dict, source), source)

    adversaries_raw = _typed(raw.get("adversaries", []), "adversaries",
                             list, source)
    adversaries = [_validate_adversary(entry, f"adversaries.{index}", source)
                   for index, entry in enumerate(adversaries_raw)]

    mode = _typed(raw.get("mode", {}), "mode", dict, source)
    if "profile" in mode:
        raise SpecError("mode.profile", "key removed: every run uses the "
                        "one medium arithmetic", source=source)
    _check_unknown(mode, "mode", ("kernel",), source)
    kernel = _typed(mode.get("kernel", "auto"), "mode.kernel", str, source)
    if kernel not in KERNELS:
        raise SpecError("mode.kernel",
                        f"unknown kernel {kernel!r}; expected one of "
                        f"{list(KERNELS)}", source=source)

    seeds = _typed(raw.get("seeds", {}), "seeds", dict, source)
    _check_unknown(seeds, "seeds", ("count", "list"), source)
    if "list" in seeds:
        seed_list = _typed(seeds["list"], "seeds.list", list, source)
        if not seed_list:
            raise SpecError("seeds.list", "must not be empty", source=source)
        seed_list = [_typed(s, f"seeds.list.{i}", int, source)
                     for i, s in enumerate(seed_list)]
        if len(set(seed_list)) != len(seed_list):
            raise SpecError("seeds.list",
                            f"duplicate seeds: {seed_list}", source=source)
    elif "count" in seeds:
        count = _typed(seeds["count"], "seeds.count", int, source)
        if count < 1:
            raise SpecError("seeds.count", f"must be >= 1, got {count}",
                            source=source)
        seed_list = list(range(seed, seed + count))
    else:
        seed_list = [seed]

    sweep_raw = _typed(raw.get("sweep", {}), "sweep", dict, source)
    normalized = {
        "campaign": {"name": name},
        "scenario": {"builder": builder, "horizon": horizon, "seed": seed,
                     "params": params},
        "traffic": traffic,
        "adversaries": adversaries,
        "mode": {"kernel": kernel},
        "seeds": {"list": seed_list},
        "sweep": {},
    }
    for axis_path, values in sweep_raw.items():
        values = _typed(values, f"sweep.{axis_path}", list, source)
        if not values:
            raise SpecError(f"sweep.{axis_path}",
                            "axis must list at least one value",
                            source=source)
        # The axis must point *into* the normalized spec: its parent
        # container has to exist (the leaf itself may be a new knob —
        # builder-param validation re-runs on every expanded job, so a
        # misspelled leaf still fails loudly, with this path).
        _resolve_parent(normalized, axis_path, f"sweep.{axis_path}", source)
        if axis_path.startswith(("sweep", "seeds", "campaign")):
            raise SpecError(f"sweep.{axis_path}",
                            "sweeping the sweep/seeds/campaign sections "
                            "is not meaningful", source=source)
        normalized["sweep"][axis_path] = list(values)

    return normalized


# --- spec paths -------------------------------------------------------------

def _segments(path: str) -> List[Union[str, int]]:
    out: List[Union[str, int]] = []
    for segment in path.split("."):
        out.append(int(segment) if segment.isdigit() else segment)
    return out


def _resolve_parent(spec: Dict[str, Any], path: str, error_path: str,
                    source: Optional[str]) -> Tuple[Any, Union[str, int]]:
    """Walk to the parent container of ``path``; error by spec path."""
    segments = _segments(path)
    node: Any = spec
    for depth, segment in enumerate(segments[:-1]):
        try:
            node = node[segment]
        except (KeyError, IndexError, TypeError):
            walked = ".".join(str(s) for s in segments[:depth + 1])
            raise SpecError(error_path,
                            f"path does not exist in the spec "
                            f"(failed at {walked!r})", source=source)
    leaf = segments[-1]
    if isinstance(node, list):
        if not isinstance(leaf, int) or not 0 <= leaf < len(node):
            raise SpecError(error_path,
                            f"index {leaf!r} out of range "
                            f"(list has {len(node)} entries)", source=source)
    elif not isinstance(node, dict):
        raise SpecError(error_path,
                        f"parent of {str(leaf)!r} is not a container",
                        source=source)
    return node, leaf


def get_path(spec: Dict[str, Any], path: str) -> Any:
    node, leaf = _resolve_parent(spec, path, path, None)
    try:
        return node[leaf]
    except (KeyError, IndexError):
        raise SpecError(path, "path does not exist in the spec")


def set_path(spec: Dict[str, Any], path: str, value: Any) -> None:
    node, leaf = _resolve_parent(spec, path, path, None)
    node[leaf] = value


# --- canonical form ---------------------------------------------------------

def _canon(value: Any) -> Any:
    """Floats become repr strings — the byte-comparable convention
    shared with :mod:`repro.telemetry.export`."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def canonical_json(value: Any) -> str:
    """Deterministic compact JSON: sorted keys, repr'd floats."""
    return json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))


def spec_sha1(value: Any) -> str:
    """The content address of a (job) spec: sha1 of its canonical form."""
    return hashlib.sha1(canonical_json(value).encode()).hexdigest()


def concrete_job_spec(spec: Dict[str, Any], axes: Dict[str, Any],
                      seed: int) -> Dict[str, Any]:
    """One fully-concrete job: sweep axes applied, single seed pinned.

    The returned dict has no ``sweep``/``seeds`` sections (identity
    must not depend on what *else* the grid contained) and is
    re-validated, so a swept-in value of the wrong type or an axis that
    created an unknown builder param fails here, naming the axis path.
    """
    job = copy.deepcopy(spec)
    job.pop("sweep", None)
    job.pop("seeds", None)
    for path, value in axes.items():
        set_path(job, path, value)
    job["scenario"]["seed"] = seed
    try:
        job = validate_spec(job)
    except SpecError as exc:
        raise SpecError(exc.path,
                        f"{exc.message} (after applying sweep axes "
                        f"{sorted(axes)})")
    # validate_spec re-normalizes empty sweep/seeds sections in; strip
    # them again — a concrete job has neither, by definition.
    del job["sweep"], job["seeds"]
    return job
