"""Command line interface.

Subcommands mirror the library: sphere, capacity, flow, mass, verify,
hypotheses.  Options follow the subcommand.  The metric is selected by a
spec string such as ``flat``, ``schwarzschild:m=1`` or
``expr:geodesic:r+0.1*r``, either inline via --metric or through the
[metric] section of a config file; inline wins.  sphere, capacity and mass
take --format; flow always writes CSV, verify and hypotheses a table.

Exit codes: 0 success, 1 verification failure or a reader that closed
standard output early, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
from typing import IO, List, Optional, Sequence, get_type_hints

from . import flow as flow_mod
from . import masses as masses_mod
from .capacity import HOLDER_TOL, _capacities, verify_flux_holder
from .errors import ConfigError, IsocapError
from .geometry import (SCALAR_CURVATURE_FLOOR, SIXTEEN_PI, check_hypotheses,
                       metric_from_spec, sphere_data)
from .numerics import ToleranceConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_MACHINE = "%.17g"
_HUMAN = "%.6g"

_SUITES = ("equivalence", "geroch", "bmx", "holder", "willmore", "isoperimetric")
_FORMATS = ("human", "json", "csv")
_TOLERANCE_TYPES = get_type_hints(ToleranceConfig)
_SECTIONS = {"metric": ("spec",), "output": ("format", "path"),
             "tolerances": tuple(_TOLERANCE_TYPES)}
_WILLMORE_TOL = 1e-3  # largest passing |limit - 16 pi| / (16 pi)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process: argparse reads a
    parser's actions and does not change them while parsing."""
    top = argparse.ArgumentParser(prog="isocap", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", help="INI config file with [metric], "
                       "[tolerances], [output] sections")
        p.add_argument("--metric", help="metric spec string (overrides config)")
        p.add_argument("--out", help="output file (default stdout)")
        fmt = _COMMANDS[name][1]
        if fmt:
            p.add_argument("--format", choices=_FORMATS,
                           help=f"output format ([output] format, else {fmt})")
        return p

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
    for section in cp.sections():
        for key in cp.options(section):
            if key not in _SECTIONS.get(section, ()):
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    fmt = cp.get("output", "format", fallback=None)
    if fmt is not None and fmt not in _FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}; use "
                          f"{', '.join(_FORMATS)}")
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
    kwargs = {}
    for key, raw in cp.items("tolerances") if cp.has_section("tolerances") else ():
        try:
            kwargs[key] = _TOLERANCE_TYPES[key](raw)
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
        rep = flow_mod.geroch_check(track)
        rows.append(("worst Hawking mass drop", rep.worst_drop,
                     f"<= {flow_mod.GEROCH_TOL:.0e} rel", rep.monotone))
    elif suite == "bmx":
        for rho_mul in (1.0, 1.5, 2.5, 5.0, 50.0):
            for p in (1.5, 2.0, 2.5):
                b = masses_mod.bmx_bound_check(metric, base * rho_mul, p, cfg)
                rows.append((f"bmx rho={base * rho_mul:g} p={p:g}",
                             b.slack, f">= -{masses_mod.BMX_TOL:.0e} rel", b.passed))
    elif suite == "holder":
        for p in (1.5, 2.0, 2.5):
            rep = verify_flux_holder(metric, base, p, cfg=cfg)
            rows.append((f"holder gap p={p:g}", rep.max_rel_gap,
                         f"<= {HOLDER_TOL:.0e}",
                         rep.max_rel_gap <= HOLDER_TOL and rep.all_pass))
    elif suite == "willmore":
        track = flow_mod.weak_imcf(metric, base, 15.0, n_samples=300, cfg=cfg)
        lim, _ = flow_mod.willmore_limit(track, cfg=cfg)
        rel = abs(lim - SIXTEEN_PI) / SIXTEEN_PI
        rows.append(("willmore limit rel error", rel,
                     f"<= {_WILLMORE_TOL:.0e}", rel <= _WILLMORE_TOL))
    else:  # isoperimetric; argparse admits no other suite
        rep_mass = masses_mod.total_mass(metric, 2.0, cfg=cfg)
        m_hat = rep_mass.extrapolated_mass
        m_bound = 1.1 * m_hat if math.isfinite(m_hat) and m_hat > 0 else 0.1
        grid = [base * 10.0 * 2.0 ** k for k in range(10)]
        rep = masses_mod.asymptotic_isoperimetric_check(metric, m_bound, grid, cfg)
        ok = rep.threshold is not None
        rows.append((f"isoperimetric m={m_bound:g} threshold",
                     rep.threshold if ok else math.inf,
                     f"finite, excess <= {masses_mod.ISOPERIMETRIC_TOL:.0e} rel", ok))
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
    rows = [("scalar curvature >= 0", worst, f">= {SCALAR_CURVATURE_FLOOR:.0e}",
             rep.scalar_curvature_nonneg),
            ("no interior minimal sphere", float(len(rep.offending_radii)),
             "0", rep.no_interior_minimal),
            ("radial isoperimetric constant",
             rep.radial_isoperimetric_constant, "> 0",
             rep.radial_isoperimetric_constant > 0.0)]
    return EXIT_OK if _write_checks(stream, rows) else EXIT_VERIFY_FAILED


# command: (handler, default format); a command with a default format takes
# --format and [output] format, the others always write one form
_COMMANDS = {
    "sphere": (_cmd_sphere, "human"),
    "capacity": (_cmd_capacity, "human"),
    "flow": (_cmd_flow, None),
    "mass": (_cmd_mass, "json"),
    "verify": (_cmd_verify, None),
    "hypotheses": (_cmd_hypotheses, None),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, fmt = _COMMANDS[args.command]
    try:
        cp = _load_config(args.config)
        metric = _resolve_metric(args, cp)
        cfg = _resolve_tolerances(cp)
        if fmt:  # only these commands have --format
            fmt = (args.format or cp.get("output", "format", fallback=None)
                   or fmt)
        out_path = args.out or cp.get("output", "path", fallback=None)
        if out_path:
            try:
                stream = open(out_path, "w")
            except OSError as exc:
                raise ConfigError(f"cannot write {out_path!r}: "
                                  f"{exc.strerror}") from None
            with stream:
                return handler(args, metric, cfg, stream, fmt)
        code = handler(args, metric, cfg, sys.stdout, fmt)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"isocap: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IsocapError as exc:
        print(f"isocap: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader left early (``| head -1``); the recipe of Python's
        # signal module docs: no error at the exit flush, Python's status 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
