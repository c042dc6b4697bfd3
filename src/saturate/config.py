"""Run-configuration loading: key, type and range checks, and system construction."""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

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


# Each check below takes (value, dotted key path) and raises ConfigError at
# the first key that fails it. The checks test keys, JSON types and the
# analysis ranges; a system value outside its model's range (gamma, p, theta,
# a degree coefficient, a protograph entry) is refused by the model
# constructor that build_system calls.


def _key(at: str, key: str) -> str:
    return f"{at}.{key}" if at else key


def _is_number(x) -> bool:
    """A JSON number (true and false are not) whose double is finite."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an integer literal beyond the double range
        return False


def _value(what: str, test):
    def check(x, at):
        if not test(x):
            raise ConfigError(f"{at} must be {what}")
    return check


def _list(what: str, item, fewest=0, most=math.inf):
    def check(x, at):
        if type(x) is not list or not fewest <= len(x) <= most:
            raise ConfigError(f"{at} must be {what}")
        for i, entry in enumerate(x):
            item(entry, f"{at}[{i}]")
    return check


def _block(*required, **checks):
    """An object with only the keys of `checks`, and with every key of `required`."""
    def check(x, at):
        if type(x) is not dict:
            raise ConfigError(f"{at or 'the config'} must be an object")
        for key in x:
            if key not in checks:
                raise ConfigError(f"{_key(at, key)} is not a known key")
        for key in required:
            if key not in x:
                raise ConfigError(f"{_key(at, key)} is required")
        for key, entry in x.items():
            checks[key](entry, _key(at, key))
    return check


def _choice(tag: str, **blocks):
    """An object whose `tag` names the block that checks the rest of it."""
    def check(x, at):
        # a tuple, since the tag's value may be an unhashable list or object
        if type(x) is not dict or x.get(tag) not in tuple(blocks):
            raise ConfigError(f"{at} must be an object whose {tag} is one of {', '.join(blocks)}")
        blocks[x[tag]]({key: entry for key, entry in x.items() if key != tag}, at)
    return check


def _degrees(x, at):
    """A {degree: coefficient} map of an edge-perspective polynomial."""
    if type(x) is not dict:
        raise ConfigError(f"{at} must be an object")
    for key, entry in x.items():
        # no leading zero: "03" beside "3" would name one degree twice
        if not re.match(r"[1-9][0-9]*$", key):
            raise ConfigError(f"{_key(at, key)} is not a degree")
        _NUMBER(entry, _key(at, key))


_NUMBER = _value("a finite number", _is_number)
_INTEGER = _value("an integer", lambda x: type(x) is int)
_BOOLEAN = _value("true or false", lambda x: type(x) is bool)
_COUNT = _value("an integer >= 0", lambda x: type(x) is int and x >= 0)
_POSITIVE_COUNT = _value("an integer >= 1", lambda x: type(x) is int and x >= 1)
_TOL = _value("a finite number > 0", lambda x: _is_number(x) and x > 0)
# a channel value the analyses accept
_CHANNEL = _value("a number in (0, 1]", lambda x: _is_number(x) and 0 < x <= 1)
_NUMBERS = _list("a list of numbers", _NUMBER)
_USERS = dict.fromkeys(("lambda1", "rho1", "lambda2", "rho2"), _degrees)

_SYSTEM = _choice(
    "type",
    protograph=_block(
        "matrix",
        matrix=_list("a list of rows", _list("a list of integers", _INTEGER)),
        node_scale=_NUMBERS,
        punctured_columns=_list("a list of integers", _INTEGER),
    ),
    slepian_wolf=_block(*_USERS, "gamma", "p", **_USERS, gamma=_NUMBER, p=_NUMBER, path=_choice(
        "kind",
        diagonal=_block(),
        scaled=_block("theta", theta=_NUMBER),
        table=_block("knots", "eps1", "eps2", knots=_NUMBERS, eps1=_NUMBERS, eps2=_NUMBERS),
    )),
    emac=_block(*_USERS, **_USERS),
)

_ANALYSIS = {
    "threshold": _block(
        "gap_grid",
        bisect_tol=_TOL,
        gap_grid=_list("a nonempty list", _CHANNEL, 1),
        theta_values=_list("a nonempty list", _value(
            "a number in [0, 1]", lambda x: _is_number(x) and 0 <= x <= 1), 1),
        seed=_INTEGER,
    ),
    "coupled": _block(
        "L", "w",
        L=_COUNT,
        w=_POSITIVE_COUNT,
        eps_values=_list("a nonempty list", _CHANNEL, 1),
        one_sided=_BOOLEAN,
        mode=_value("limit, threshold or both", lambda x: x in ("limit", "threshold", "both")),
        bisect_tol=_TOL,
        max_iter=_POSITIVE_COUNT,
        record_every=_COUNT,
        width_bound=_BOOLEAN,
        seed=_INTEGER,
    ),
    "verify": _block(
        "n_samples",
        n_samples=_POSITIVE_COUNT,
        seed=_COUNT,  # verify draws its samples from it; the others only echo it
        eps_values=_list("a list of 3", _CHANNEL, 3, 3),
        L=_COUNT,
        w=_POSITIVE_COUNT,
    ),
}


def load_config(path, command: str) -> dict:
    """Read one run configuration and check it against the table of its command."""
    if command not in _ANALYSIS:
        raise ConfigError(f"unknown command {command!r}")
    p = Path(path)
    try:
        raw = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    _block("system", "analysis", system=_SYSTEM, analysis=_ANALYSIS[command])(cfg, "")
    analysis = cfg["analysis"]
    # modes limit (the default) and both run a chain at each of eps_values
    mode = analysis.get("mode", "limit")
    if command == "coupled" and mode != "threshold" and "eps_values" not in analysis:
        raise ConfigError("analysis.eps_values is required unless analysis.mode is threshold")
    if "theta_values" in analysis and cfg["system"]["type"] != "slepian_wolf":
        raise ConfigError("theta_values sweeps apply only to slepian_wolf systems")
    return cfg


def config_hash(cfg: dict) -> str:
    """Stable digest of the validated configuration, embedded in every report."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


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
        if kind in ("emac", "slepian_wolf"):
            lam1, rho1, lam2, rho2 = (EdgePolynomial.from_degree_map(block[key])
                                      for key in ("lambda1", "rho1", "lambda2", "rho2"))
        if kind == "emac":
            return make_emac(lam1, rho1, lam2, rho2)
        if kind == "slepian_wolf":
            return make_slepian_wolf(SlepianWolfParams(
                lam1=lam1, rho1=rho1, lam2=lam2, rho2=rho2, gamma=block["gamma"], p=block["p"],
                path=_build_path(block.get("path"))))
    except (ValueError, KeyError, OverflowError) as e:
        raise ConfigError(f"invalid system block: {e}") from e
    raise ConfigError(f"unknown system type {block.get('type')!r}")
