"""Run-configuration loading: JSON schema validation and system construction."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
import numpy as np

from .degdist import EdgePolynomial
from .models import (
    ProtographSpec,
    ScaledPath,
    SlepianWolfParams,
    TablePath,
    make_emac,
    make_protograph,
    make_slepian_wolf,
)


class ConfigError(Exception):
    """Anything wrong with a run configuration (exit code 2)."""


_DEGREE_MAP = {
    "type": "object",
    "minProperties": 1,
    "patternProperties": {"^[0-9]+$": {"type": "number", "minimum": 0}},
    "additionalProperties": False,
}

_PATH = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "diagonal"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "scaled"},
                "theta": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "required": ["kind", "theta"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "table"},
                "knots": {"type": "array", "items": {"type": "number"}, "minItems": 2},
                "eps1": {"type": "array", "items": {"type": "number"}, "minItems": 2},
                "eps2": {"type": "array", "items": {"type": "number"}, "minItems": 2},
            },
            "required": ["kind", "knots", "eps1", "eps2"],
            "additionalProperties": False,
        },
    ]
}

_SYSTEM = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "protograph"},
                "matrix": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "integer", "minimum": 0},
                    },
                },
                "node_scale": {"type": "array", "items": {"type": "number"}},
                "punctured_columns": {"type": "array", "items": {"type": "integer"}},
            },
            "required": ["type", "matrix"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "slepian_wolf"},
                "lambda1": _DEGREE_MAP,
                "rho1": _DEGREE_MAP,
                "lambda2": _DEGREE_MAP,
                "rho2": _DEGREE_MAP,
                "gamma": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "p": {"type": "number", "minimum": 0, "maximum": 1},
                "path": _PATH,
            },
            "required": ["type", "lambda1", "rho1", "lambda2", "rho2", "gamma", "p"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "emac"},
                "lambda1": _DEGREE_MAP,
                "rho1": _DEGREE_MAP,
                "lambda2": _DEGREE_MAP,
                "rho2": _DEGREE_MAP,
            },
            "required": ["type", "lambda1", "rho1", "lambda2", "rho2"],
            "additionalProperties": False,
        },
    ]
}

# a channel value the analyses accept: eps in (0, 1]
_CHANNEL = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}

_ANALYSIS = {
    "threshold": {
        "type": "object",
        "properties": {
            "bisect_tol": {"type": "number", "exclusiveMinimum": 0},
            "gap_grid": {"type": "array", "items": _CHANNEL, "minItems": 1},
            "theta_values": {
                "type": "array",
                "items": {"type": "number", "minimum": 0, "maximum": 1},
                "minItems": 1,
            },
            "seed": {"type": "integer"},
        },
        "required": ["gap_grid"],
        "additionalProperties": False,
    },
    "coupled": {
        "type": "object",
        "properties": {
            "L": {"type": "integer", "minimum": 0},
            "w": {"type": "integer", "minimum": 1},
            "eps_values": {"type": "array", "items": _CHANNEL, "minItems": 1},
            "one_sided": {"type": "boolean"},
            "mode": {"enum": ["limit", "threshold", "both"]},
            "bisect_tol": {"type": "number", "exclusiveMinimum": 0},
            "max_iter": {"type": "integer", "minimum": 1},
            "record_every": {"type": "integer", "minimum": 0},
            "width_bound": {"type": "boolean"},
            "seed": {"type": "integer"},
        },
        "required": ["L", "w", "eps_values"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "n_samples": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer"},
            "eps_values": {
                "type": "array",
                "items": _CHANNEL,
                "minItems": 3,
                "maxItems": 3,
            },
            "L": {"type": "integer", "minimum": 0},
            "w": {"type": "integer", "minimum": 1},
            "corrupt_f": {"type": "boolean"},
        },
        "required": ["n_samples"],
        "additionalProperties": False,
    },
}


def schema_for(command: str) -> dict:
    if command not in _ANALYSIS:
        raise ConfigError(f"unknown command {command!r}")
    return {
        "type": "object",
        "properties": {
            "system": _SYSTEM,
            "analysis": _ANALYSIS[command],
        },
        "required": ["system", "analysis"],
        "additionalProperties": False,
    }


def load_config(path, command: str) -> dict:
    """Read, schema-validate, and semantically check one run configuration."""
    p = Path(path)
    try:
        raw = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    # jsonschema.validate without its check_schema pass, which re-checks the
    # constant schema against its metaschema and costs nearly all of a load
    schema = schema_for(command)
    e = best_match(validator_for(schema)(schema).iter_errors(cfg))
    if e is not None:
        raise ConfigError(f"config {p} rejected: {e.message} (at {list(e.absolute_path)})") from e
    if "theta_values" in cfg.get("analysis", {}) and cfg["system"]["type"] != "slepian_wolf":
        raise ConfigError("theta_values sweeps apply only to slepian_wolf systems")
    return cfg


def config_hash(cfg: dict) -> str:
    """Stable digest of the validated configuration, embedded in every report."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _edge_poly(mapping: dict) -> EdgePolynomial:
    return EdgePolynomial.from_degree_map(mapping)


def _build_path(block: dict | None):
    if block is None or block["kind"] == "diagonal":
        return ScaledPath(theta=1.0)
    if block["kind"] == "scaled":
        return ScaledPath(theta=block["theta"])
    return TablePath(
        knots=np.asarray(block["knots"], float),
        eps1=np.asarray(block["eps1"], float),
        eps2=np.asarray(block["eps2"], float),
    )


def build_system(block: dict):
    """Construct the SystemDefinition described by a config system block."""
    try:
        kind = block["type"]
        if kind == "protograph":
            spec = ProtographSpec(
                H=np.asarray(block["matrix"], dtype=np.int64),
                node_scale=block.get("node_scale"),
                punctured_columns=frozenset(block.get("punctured_columns", ())),
            )
            return make_protograph(spec)
        if kind == "emac":
            return make_emac(
                _edge_poly(block["lambda1"]),
                _edge_poly(block["rho1"]),
                _edge_poly(block["lambda2"]),
                _edge_poly(block["rho2"]),
            )
        if kind == "slepian_wolf":
            params = SlepianWolfParams(
                lam1=_edge_poly(block["lambda1"]),
                rho1=_edge_poly(block["rho1"]),
                lam2=_edge_poly(block["lambda2"]),
                rho2=_edge_poly(block["rho2"]),
                gamma=block["gamma"],
                p=block["p"],
                path=_build_path(block.get("path")),
            )
            return make_slepian_wolf(params)
    except (ValueError, KeyError) as e:
        raise ConfigError(f"invalid system block: {e}") from e
    raise ConfigError(f"unknown system type {block.get('type')!r}")
