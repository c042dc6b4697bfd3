"""Command-line surface: `saturate threshold|coupled|verify --config <file>`.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-convergence), 4 invariant failure. Identical config and seed produce
byte-identical outputs: reports carry no timestamps, floats are written with
round-trip precision, and sweep cells run one after another in config order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, build_system, config_hash, load_config
from .coupled import (
    COUPLED_MAX_ITER,
    CouplingSpec,
    coupled_bp_threshold,
    coupled_limit,
    hessian_bound,
    min_coupling_width,
)
from .potential import BISECT_TOL, _energy_gaps, threshold_report
from .system import verify_admissible
from .verify import lemma_battery

log = logging.getLogger("saturate")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


def _setup_logging():
    level = os.environ.get("SATURATE_LOG", "WARNING").upper()
    logging.basicConfig(
        stream=_sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _sanitize(obj):
    """Make a report JSON-safe: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def _write_json(path: Path, obj: dict):
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_csv(path: Path, header: list, rows):
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _refuse_shared_names(key: str, values: list, names: list) -> None:
    """Raise ConfigError when two entries of analysis[key] would write one file."""
    for i, name in enumerate(names):
        j = names.index(name)
        if j < i:
            raise ConfigError(f"analysis.{key} entries {values[j]!r} and {values[i]!r} "
                              f"both write {name}")


def _base_report(command: str, cfg: dict, seed: int) -> dict:
    return {
        "tool": {"name": "saturate", "version": __version__},
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": seed,
        "system": cfg["system"],
    }


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def cmd_threshold(cfg: dict, out_dir: Path) -> int:
    analysis = cfg["analysis"]
    tol = analysis.get("bisect_tol", BISECT_TOL)
    gap_grid = analysis["gap_grid"]
    seed = analysis.get("seed", 0)
    cells = analysis.get("theta_values", [None])
    suffixes = ["" if theta is None else f"_theta_{theta:g}" for theta in cells]
    _refuse_shared_names("theta_values", cells, [f"threshold_report{s}.json" for s in suffixes])
    # the configured system is built even where the theta cells replace its
    # path, so that its model constructors check the path block too
    system = build_system(cfg["system"])
    for theta, suffix in zip(cells, suffixes):
        if theta is not None:
            system = build_system({**cfg["system"], "path": {"kind": "scaled", "theta": theta}})
        rep = threshold_report(system, gap_grid=gap_grid, tol=tol)
        body = _base_report("threshold", cfg, seed)
        body.update(
            {
                "theta": theta,
                "system_name": rep.system,
                "thresholds": {
                    "bp": rep.bp_threshold,
                    "potential": rep.potential_threshold,
                    "maxwell": rep.maxwell_threshold,
                },
                "tolerances": rep.tolerances,
                "enumeration": rep.enumeration,
                "energy_gap_curve": [[e, g] for e, g in rep.energy_gap_curve],
            }
        )
        _write_json(out_dir / f"threshold_report{suffix}.json", body)
        _write_csv(
            out_dir / f"energy_gap{suffix}.csv",
            ["eps", "energy_gap"],
            rep.energy_gap_curve,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# coupled
# ---------------------------------------------------------------------------


def cmd_coupled(cfg: dict, out_dir: Path) -> int:
    analysis = cfg["analysis"]
    L = analysis["L"]
    w = analysis["w"]
    one_sided = analysis.get("one_sided", False)
    mode = analysis.get("mode", "limit")
    tol = analysis.get("bisect_tol", BISECT_TOL)
    max_iter = analysis.get("max_iter", COUPLED_MAX_ITER)
    record_every = analysis.get("record_every", 0)
    want_bound = analysis.get("width_bound", True)
    seed = analysis.get("seed", 0)
    run_eps = analysis["eps_values"] if mode in ("limit", "both") else []
    profiles = [f"coupled_profile_eps_{eps:g}.csv" for eps in run_eps]
    _refuse_shared_names("eps_values", run_eps, profiles)
    system = build_system(cfg["system"])
    spec = CouplingSpec(L=L, w=w, one_sided=one_sided)
    bound_value = hessian_bound(system) if want_bound else None
    runs = []
    gaps = _energy_gaps(system, run_eps) if want_bound else [None] * len(run_eps)
    for eps, gap, profile in zip(run_eps, gaps, profiles):
        state, rep = coupled_limit(system, spec, eps, max_iter=max_iter,
                                   record_every=record_every)
        snaps = rep.snapshots or [(rep.iterations, state.rows)]
        csv_rows = [(it, pos, c, v) for it, rows in snaps
                    for pos, row in zip(spec.positions().tolist(), rows.tolist())
                    for c, v in enumerate(row)]
        _write_csv(
            out_dir / profile,
            ["iteration", "position", "component", "value"],
            csv_rows,
        )
        entry = {
            "eps": eps,
            "iterations": rep.iterations,
            "converged": rep.converged,
            "converged_to_zero": rep.is_zero,
            "monotone_ok": rep.monotone_ok,
            "max_entry": state.max_entry(),
            "sup_change": rep.sup_change,
            "snapshots_recorded": len(snaps),
        }
        if want_bound:
            if gap <= 0.0:
                entry["width_bound"] = None
                entry["width_bound_note"] = "energy gap not positive at this eps"
            else:
                entry["width_bound"] = min_coupling_width(system, eps, gap=gap,
                                                          bound=bound_value)
        runs.append(entry)

    body = _base_report("coupled", cfg, seed)
    body.update(
        {
            "L": L,
            "w": w,
            "one_sided": one_sided,
            "max_iter": max_iter,
            "hessian_bound": bound_value,
            "runs": runs,
        }
    )
    if mode in ("threshold", "both"):
        body["coupled_bp_threshold"] = coupled_bp_threshold(
            system, L=L, w=w, tol=tol, max_iter=max_iter
        )
        body["bisect_tol"] = tol
    _write_json(out_dir / "coupled_report.json", body)
    return EXIT_OK if all(r["converged"] for r in runs) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    analysis = cfg["analysis"]
    n_samples = analysis["n_samples"]
    seed = analysis.get("seed", 0)
    eps_values = analysis.get("eps_values")
    L = analysis.get("L", 16)
    w = analysis.get("w", 3)
    system = build_system(cfg["system"])

    adm = verify_admissible(system, n_samples=n_samples, seed=seed)
    body = _base_report("verify", cfg, seed)
    body["admissibility"] = {"ok": adm.ok, **dataclasses.asdict(adm)}
    if not adm.ok:
        body["battery"] = None
        _write_json(out_dir / "verify_report.json", body)
        names = sorted({v.condition for v in adm.violations})
        log.error("admissibility violated: %s", ", ".join(names))
        print(f"FAIL admissibility: {', '.join(names)}", file=_sys.stderr)
        return EXIT_INVARIANT

    battery = lemma_battery(system, eps_values=eps_values, L=L, w=w, seed=seed)
    body["battery"] = {"ok": battery.ok, **dataclasses.asdict(battery)}
    _write_json(out_dir / "verify_report.json", body)
    if not battery.ok:
        names = [c.name for c in battery.failed()]
        log.error("invariant checks failed: %s", ", ".join(names))
        print(f"FAIL lemma checks: {', '.join(names)}", file=_sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"threshold": cmd_threshold, "coupled": cmd_coupled, "verify": cmd_verify}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="saturate",
        description="Density-evolution thresholds, potentials, and coupled-chain runs",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("threshold", "single-system, potential, and Maxwell thresholds + energy-gap curve"),
        ("coupled", "spatially-coupled runs and the coupled threshold"),
        ("verify", "admissibility and invariant battery"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: sweep cells run one after another "
                            "in config order")
        p.add_argument("--out", default=".", help="output directory (default: the current one)")
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
    except ConfigError as e:
        log.error("%s", e)
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"config error: cannot create output dir: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_CONFIG
    except (ValueError, np.linalg.LinAlgError) as e:
        log.exception("numerical failure")
        print(f"numerical failure: {e}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    _sys.exit(main())
