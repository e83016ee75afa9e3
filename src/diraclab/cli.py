"""Command-line front end: reproducible runs of every experiment.

Subcommands: spectrum, bracket, stretch, vary, flow, certify.  Every run
reads a JSON config (validated against the schemas module), writes its report
into ``--out`` as CSV (tables) or JSON (full manifest with config, seed, and
package version echoed), and exits 0 on success, 1 when a checked
invariant fails (including truncation-risk refusals), 2 on bad input.
Identical config and seed produce byte-identical outputs: reports carry no
timestamps, JSON keys are sorted, and floats are written with full repr
precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import existence_certificate
from .circle import CircleDiracModel, annihilation_flow, bg_first_variation
from .errors import MAX_TERMS, DiracLabError, UsageError, require_int
from .profiles import WarpingProfile, exponential_profile, resolve_m
from .schemas import (BRACKET_CONFIG_SCHEMA, CERTIFY_CONFIG_SCHEMA,
                      FLOW_CONFIG_SCHEMA, SPECTRUM_CONFIG_SCHEMA,
                      SPECTRUM_DOC_SCHEMA, STRETCH_CONFIG_SCHEMA,
                      VARY_CONFIG_SCHEMA, validate_config)
from .transverse import TransverseSpectrum, circle_spectrum
from .util import random_trig_polynomial

__all__ = ["main"]


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(x) for x in row])
    return path


def _write_json(path: Path, doc: dict) -> Path:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _envelope(command: str, seed: int, config: dict, result: dict) -> dict:
    return {"command": command, "version": __version__, "seed": seed,
            "config": config, "result": result}


def _emit(args, config: dict, name: str, result_doc: dict, header, rows) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        return _write_csv(out_dir / f"{name}.csv", header, rows)
    doc = _envelope(name, args.seed, config, result_doc)
    return _write_json(out_dir / f"{name}.json", doc)


def _read_json(path: Path, what: str):
    """Parse a JSON input file; NaN and infinite numbers are bad input."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}")

    def number(text):
        value = float(text)
        if not math.isfinite(value):
            raise UsageError(f"{what} {path} holds {text}, which is not a "
                             "finite number")
        return value

    try:
        return json.loads(raw, parse_float=number, parse_constant=number)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}")


def _spectrum_from_source(source: dict, base_dir: Path) -> TransverseSpectrum:
    if "circle" in source:
        c = source["circle"]
        return circle_spectrum(c["length"], float(c["delta"]), c["truncation"])
    if "file" in source:
        path = Path(source["file"])
        if not path.is_absolute():
            path = base_dir / path
        doc = _read_json(path, "spectrum file")
        return TransverseSpectrum.from_dict(
            validate_config(doc, SPECTRUM_DOC_SCHEMA, f"spectrum file {path}"))
    return TransverseSpectrum.from_dict(source)


def _options(args, cfg, *keys, **renamed) -> dict:
    """Keyword arguments for a library call: each of ``keys`` that the config
    sets (``renamed`` maps a config key to its parameter name), and ``--mesh``
    when given.  What the config leaves out keeps the library's default."""
    names = {**{key: key for key in keys}, **renamed}
    options = {param: cfg[key] for key, param in names.items() if key in cfg}
    if getattr(args, "mesh", None) is not None:
        options["mesh"] = args.mesh
    return options


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the validated config and
# returns (result_doc, header, rows, failure), failure being None or the
# message of the checked invariant that failed
# ---------------------------------------------------------------------------

def _cmd_spectrum(args, cfg):
    from .assemble import assemble_spectrum
    profile = WarpingProfile.from_dict(cfg["profile"])
    spectrum = _spectrum_from_source(cfg["spectrum"], Path(args.config).parent)
    t = cfg.get("t", profile.domain_length)
    m = resolve_m(profile, cfg.get("m"))
    assembled = assemble_spectrum(
        profile, spectrum, t, m, cfg["count"],
        **_options(args, cfg, "mesh", "strict_truncation"))
    return (assembled.to_dict(), *assembled.to_rows(), None)


def _cmd_bracket(args, cfg):
    from .bracketing import run_random_cases
    reports, all_passed = run_random_cases(
        args.seed, cfg.get("cases", 100), **_options(args, cfg, "j_count", "mesh"))
    header = ["case_index", "t", "n_cuts", "n_pieces_used", "min_margin",
              "passed"]
    rows = [[r.case_index, r.t, len(r.cuts), len(r.subset),
             float(np.min(r.margins)), r.passed] for r in reports]
    result = {"all_passed": all_passed, "cases": len(reports),
              "reports": [r.to_dict() for r in reports]}
    failure = (None if all_passed
               else "bracketing inequality violated in at least one case")
    return result, header, rows, failure


def _cmd_stretch(args, cfg):
    from .stretch import run_stretch_sweep, sobolev_growth_fits
    spectrum = _spectrum_from_source(cfg["spectrum"], Path(args.config).parent)
    t_values = cfg["t_values"]
    profile = exponential_profile(cfg["m"], t_values[0])
    report = run_stretch_sweep(
        profile, spectrum, t_values,
        **_options(args, cfg, "mesh", "tolerance", "norm_ks"))
    fits = []
    if "growth" in cfg:
        fits = sobolev_growth_fits(cfg["growth"]["k_values"],
                                   cfg["growth"]["t_values"], cfg["m"])
    result = {"sweep": report.to_dict(), "growth": [f.to_dict() for f in fits]}
    failure = (None if report.passed and all(f.within_limit for f in fits)
               else "stretch-sweep invariant failed")
    return (result, *report.to_rows(), failure)


def _cmd_vary(args, cfg):
    delta = float(cfg.get("delta", 0.5))
    modes = require_int(cfg.get("modes", 5), "modes", 1)
    perturbations = require_int(cfg.get("perturbations", 10), "perturbations", 1)
    if modes * perturbations > MAX_TERMS:
        raise UsageError(f"modes x perturbations must be at most {MAX_TERMS}, "
                         f"not {modes} x {perturbations}")
    h_fd = cfg.get("h_fd", 1e-4)
    rel_tol = cfg.get("rel_tol", 1e-4)
    rng = np.random.default_rng(args.seed)

    f, f_doc = np.ones_like, {"kind": "constant", "value": 1.0}
    if cfg.get("f_scale", 0.0) > 0:
        f = random_trig_polynomial(rng, 2.0 * math.pi, degree=3,
                                   scale=cfg["f_scale"],
                                   offset=cfg.get("f_offset", 1.0))
        f_doc = {"kind": "trig_polynomial", **f.to_dict()}
    model = CircleDiracModel(f, delta, cfg.get("n_grid", 2048))

    rows = []
    records = []
    all_passed = True
    for j in range(modes):
        for case in range(perturbations):
            kappa = random_trig_polynomial(rng, 2.0 * math.pi,
                                           degree=cfg.get("kappa_degree", 4),
                                           scale=cfg.get("kappa_scale", 1.0))
            res = bg_first_variation(model, kappa, j, h_fd)
            tol = rel_tol * (1.0 + abs(res.formula_value))
            ok = res.defect <= tol
            all_passed &= ok
            rows.append([j, case, res.formula_value, res.fd_value,
                         res.defect, tol, ok])
            records.append({**res.to_dict(), "case": case, "tolerance": tol,
                            "passed": ok,
                            "kappa": kappa.to_dict()})
    header = ["mode", "case", "formula", "fd", "defect", "tolerance", "passed"]
    result = {"all_passed": all_passed, "n_grid": model.n, "delta": delta,
              "h_fd": h_fd, "rel_tol": rel_tol, "f": f_doc, "records": records}
    failure = (None if all_passed
               else "variation formula and finite difference disagree")
    return result, header, rows, failure


def _cmd_flow(args, cfg):
    model = CircleDiracModel(np.ones_like, float(cfg.get("delta", 0.5)),
                             cfg.get("n_grid", 1024))
    trace = annihilation_flow(model,
                              **_options(args, cfg, "epsilon", steps="max_steps"))
    failure = (None if trace.monotone else
               "flow failed to decrease the lowest eigenvalue monotonically")
    return (trace.to_dict(), *trace.to_rows(), failure)


def _cmd_certify(args, cfg):
    cert = existence_certificate(cfg["m"])
    if cert.applicable:
        rows = [[i, d, "reduce along the geodesic-sphere boundary"]
                for i, d in enumerate(cert.chain[:-1])]
        rows.append([len(cert.chain) - 1, cert.base_dimension,
                     f"Berger zero mode on S^{cert.base_sphere_dim}, "
                     f"k={cert.base_k}, T={cert.base_T}"])
    else:
        rows = [[0, cert.m, f"not applicable: {cert.reason}"]]
    header = ["position", "dimension", "note"]
    return cert.to_dict(), header, rows, None


_HANDLERS = {
    "spectrum": (_cmd_spectrum, SPECTRUM_CONFIG_SCHEMA,
                 "assemble a cylinder Dirichlet spectrum"),
    "bracket": (_cmd_bracket, BRACKET_CONFIG_SCHEMA,
                "run seeded domain-decomposition bound checks"),
    "stretch": (_cmd_stretch, STRETCH_CONFIG_SCHEMA,
                "run the neck-stretching collapse sweep"),
    "vary": (_cmd_vary, VARY_CONFIG_SCHEMA,
             "check the eigenvalue first-variation formula"),
    "flow": (_cmd_flow, FLOW_CONFIG_SCHEMA,
             "run the eigenvalue annihilation flow"),
    "certify": (_cmd_certify, CERTIFY_CONFIG_SCHEMA,
                "emit a harmonic-spinor existence certificate"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="spectral experiments on warped cylinders and circles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _HANDLERS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", required=True, help="JSON config path")
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument("--format", choices=("csv", "json"), default="json")
        s.add_argument("--seed", type=int, default=0)
        if name in ("spectrum", "bracket", "stretch"):     # configs with a mesh
            s.add_argument("--mesh", type=int, default=None,
                           help="override the config's mesh size")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    name = args.command
    try:
        handler, schema, _ = _HANDLERS[name]
        cfg = validate_config(_read_json(Path(args.config), "config"), schema,
                              name)
        result_doc, header, rows, failure = handler(args, cfg)
        print(f"wrote {_emit(args, cfg, name, result_doc, header, rows)}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiracLabError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
