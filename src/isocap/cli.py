"""Command line interface.

Subcommands mirror the library: sphere, capacity, flow, mass, verify,
hypotheses.  The metric is selected by a spec string such as ``flat``,
``schwarzschild:m=1`` or ``expr:geodesic:r+0.1*r``, either inline via
--metric or through the [metric] section of a config file; inline wins.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import sys
from typing import IO, List, Optional, Sequence

from . import flow as flow_mod
from . import masses as masses_mod
from .capacity import _capacities, verify_flux_holder
from .errors import ConfigError, IsocapError
from .geometry import SIXTEEN_PI, check_hypotheses, metric_from_spec, sphere_data
from .numerics import ToleranceConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_MACHINE = "%.17g"
_HUMAN = "%.6g"

_SUITES = ("equivalence", "geroch", "bmx", "holder", "willmore", "isoperimetric")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process: argparse reads a
    parser's actions and does not change them while parsing."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file with [metric], "
                        "[tolerances], [output] sections")
    common.add_argument("--metric", help="metric spec string (overrides config)")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--format", choices=("human", "json", "csv"),
                        help="output format where applicable")

    top = argparse.ArgumentParser(prog="isocap", description=__doc__,
                                  parents=[common])
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("sphere", help="geometric data of one centered sphere")
    p.add_argument("--rho", type=float, required=True)

    p = add_parser("capacity", help="normalized p-capacity at rho0")
    p.add_argument("--rho0", type=float, required=True)
    p.add_argument("--p", type=float, required=True)

    p = add_parser("flow", help="weak inverse mean curvature flow track")
    p.add_argument("--rho0", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)

    p = add_parser("mass", help="extrapolated total masses over a p-grid")
    p.add_argument("--p-grid", default="1,1.5,2",
                   help="comma list of p values; 'iso' adds the Huisken mass")
    p.add_argument("--r-grid", default=None,
                   help="comma list of radii (default geometric grid)")

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=_SUITES, required=True)

    add_parser("hypotheses", help="check curvature and largeness hypotheses")
    return top


def _load_config(path: Optional[str]) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
    return cp


def _resolve_metric(args, cp: configparser.ConfigParser):
    spec = args.metric or cp.get("metric", "spec", fallback=None)
    if not spec:
        raise ConfigError("no metric given: use --metric or [metric] spec=...")
    try:
        return metric_from_spec(spec)
    except Exception as exc:
        raise ConfigError(f"bad metric spec {spec!r}: {exc}")


def _resolve_tolerances(cp: configparser.ConfigParser) -> ToleranceConfig:
    if not cp.has_section("tolerances"):
        return ToleranceConfig()
    fields = {f.name: f.type for f in dataclasses.fields(ToleranceConfig)}
    kwargs = {}
    for key, raw in cp.items("tolerances"):
        if key not in fields:
            raise ConfigError(f"unknown tolerance {key!r}")
        try:
            kwargs[key] = int(raw) if key in ("max_subdivisions",
                                              "extrap_terms") else float(raw)
        except ValueError:
            raise ConfigError(f"bad value for tolerance {key!r}: {raw!r}")
    try:
        return ToleranceConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _parse_grid(text: Optional[str], item=float) -> Optional[list]:
    if text is None:
        return None
    try:  # an empty token, as in "2," or "10,,20", is no number either
        return [item(x.strip()) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad grid {text!r}") from None


def _table(stream: IO[str], rows, header: Sequence[str], fmt: str) -> None:
    cells = [list(header)]
    for row in rows:
        cells.append([fmt % v if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        stream.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")


def _write_pairs(stream: IO[str], pairs, fmt: str) -> None:
    """One (name, value) record as JSON, a CSV header plus row, or a table."""
    if fmt == "json":
        stream.write(json.dumps(dict(pairs), indent=2) + "\n")
    elif fmt == "csv":
        stream.write(",".join(k for k, _ in pairs) + "\n")
        stream.write(",".join(_MACHINE % v if isinstance(v, float) else str(v)
                              for _, v in pairs) + "\n")
    else:
        _table(stream, pairs, ("quantity", "value"), _HUMAN)


def _cmd_sphere(args, metric, cfg, stream, fmt) -> int:
    d = sphere_data(metric, args.rho, cfg)
    _write_pairs(stream, [("rho", d.rho), ("area", d.area),
                          ("volume", d.volume), ("H", d.mean_curvature),
                          ("m_H", d.hawking_mass), ("willmore", d.willmore),
                          ("R", d.scalar_curvature)], fmt)
    return EXIT_OK


def _cmd_capacity(args, metric, cfg, stream, fmt) -> int:
    res = _capacities(metric, [args.rho0], [args.p], cfg)[0][0]
    _write_pairs(stream, [("p", res.p), ("rho0", res.rho0), ("ncap", res.ncap),
                          ("flux", res.flux), ("err", res.err_estimate),
                          ("parabolic", res.parabolic)], fmt)
    return EXIT_OK


def _cmd_flow(args, metric, cfg, stream, fmt) -> int:
    track = flow_mod.weak_imcf(metric, args.rho0, args.tmax,
                               n_samples=args.samples, cfg=cfg)
    flow_mod.flow_to_csv(track, stream)
    return EXIT_OK


def _cmd_mass(args, metric, cfg, stream, fmt) -> int:
    p_grid = _parse_grid(args.p_grid,
                         lambda tok: None if tok == "iso" else float(tok))
    reports = masses_mod.total_masses(metric, p_grid, _parse_grid(args.r_grid),
                                      cfg)
    if fmt == "csv":
        for rep in reports:
            masses_mod.mass_report_to_csv(rep, stream)
    elif fmt == "human":
        rows = [(("iso" if rep.p is None else _HUMAN % rep.p),
                 rep.extrapolated_mass, rep.err_estimate, rep.verdict)
                for rep in reports]
        _table(stream, rows, ("p", "mass", "err", "verdict"), _HUMAN)
    else:
        stream.write("[" + ",\n".join(masses_mod.mass_report_to_json(r)
                                      for r in reports) + "]\n")
    return EXIT_OK


def _verify_rows(suite: str, metric, cfg) -> List[tuple]:
    """Each row: (name, value, target, passed)."""
    rows = []
    base = metric.domain_start if metric.domain_start > 0.0 else 1.0
    if suite == "equivalence":
        verdict = masses_mod.equivalence_report(metric, [1.0, 1.5, 2.0, 2.5],
                                                cfg=cfg)
        rows.append(("max pairwise mass gap", verdict.max_pairwise_gap,
                     f"<= {verdict.tol}", verdict.passed))
    elif suite == "geroch":
        track = flow_mod.weak_imcf(metric, base, 8.0, cfg=cfg)
        rep = flow_mod.geroch_check(track, cfg)
        rows.append(("worst Hawking mass drop", rep.worst_drop,
                     "<= 1e-08 rel", rep.monotone))
    elif suite == "bmx":
        for rho_mul in (1.0, 1.5, 2.5, 5.0, 50.0):
            for p in (1.5, 2.0, 2.5):
                b = masses_mod.bmx_bound_check(metric, base * rho_mul, p, cfg)
                rows.append((f"bmx rho={base * rho_mul:g} p={p:g}",
                             b.slack, ">= 0", b.passed))
    elif suite == "holder":
        for p in (1.5, 2.0, 2.5):
            rep = verify_flux_holder(metric, base, p, cfg=cfg)
            rows.append((f"holder gap p={p:g}", rep.max_rel_gap,
                         "<= 1e-08", rep.max_rel_gap <= 1e-8 and rep.all_pass))
    elif suite == "willmore":
        track = flow_mod.weak_imcf(metric, base, 15.0, n_samples=300, cfg=cfg)
        lim, _ = flow_mod.willmore_limit(track, cfg=cfg)
        rel = abs(lim - SIXTEEN_PI) / SIXTEEN_PI
        rows.append(("willmore limit rel error", rel, "<= 1e-03", rel <= 1e-3))
    elif suite == "isoperimetric":
        rep_mass = masses_mod.total_mass(metric, 2.0, cfg=cfg)
        m_hat = rep_mass.extrapolated_mass
        m_bound = 1.1 * m_hat if math.isfinite(m_hat) and m_hat > 0 else 0.1
        grid = [base * 10.0 * 2.0 ** k for k in range(10)]
        rep = masses_mod.asymptotic_isoperimetric_check(metric, m_bound, grid, cfg)
        ok = rep.threshold is not None
        rows.append((f"isoperimetric m={m_bound:g} threshold",
                     rep.threshold if ok else math.inf, "finite", ok))
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    return rows


def _write_checks(stream: IO[str], rows) -> bool:
    """Table of (name, value, target, passed) rows; True when all pass."""
    display = [(name, val, target, "pass" if ok else "FAIL")
               for name, val, target, ok in rows]
    _table(stream, display, ("check", "value", "target", "status"), _HUMAN)
    return all(ok for _, _, _, ok in rows)


def _cmd_verify(args, metric, cfg, stream, fmt) -> int:
    rows = _verify_rows(args.suite, metric, cfg)
    return EXIT_OK if _write_checks(stream, rows) else EXIT_VERIFY_FAILED


def _cmd_hypotheses(args, metric, cfg, stream, fmt) -> int:
    rep = check_hypotheses(metric, cfg=cfg)
    worst = rep.worst_scalar_violation[0] if rep.worst_scalar_violation else 0.0
    rows = [("scalar curvature >= 0", worst, ">= -1e-10",
             rep.scalar_curvature_nonneg),
            ("no interior minimal sphere", float(len(rep.offending_radii)),
             "0", rep.no_interior_minimal),
            ("radial isoperimetric constant",
             rep.radial_isoperimetric_constant, "> 0",
             rep.radial_isoperimetric_constant > 0.0)]
    return EXIT_OK if _write_checks(stream, rows) else EXIT_VERIFY_FAILED


_DISPATCH = {
    "sphere": _cmd_sphere,
    "capacity": _cmd_capacity,
    "flow": _cmd_flow,
    "mass": _cmd_mass,
    "verify": _cmd_verify,
    "hypotheses": _cmd_hypotheses,
}

_DEFAULT_FORMAT = {
    "sphere": "human", "capacity": "human", "flow": "csv",
    "mass": "json", "verify": "human", "hypotheses": "human",
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cp = _load_config(args.config)
        metric = _resolve_metric(args, cp)
        cfg = _resolve_tolerances(cp)
        fmt = (args.format or cp.get("output", "format", fallback=None)
               or _DEFAULT_FORMAT[args.command])
        out_path = args.out or cp.get("output", "path", fallback=None)
        if out_path:
            try:
                stream = open(out_path, "w")
            except OSError as exc:
                raise ConfigError(f"cannot write {out_path!r}: "
                                  f"{exc.strerror}") from None
            with stream:
                return _DISPATCH[args.command](args, metric, cfg, stream, fmt)
        return _DISPATCH[args.command](args, metric, cfg, sys.stdout, fmt)
    except ConfigError as exc:
        print(f"isocap: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IsocapError as exc:
        print(f"isocap: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
