"""Experiment orchestration: configuration, runs, sweeps and reports.

Configuration is a flat key-value text file ("key = value", '#' comments)
with command-line flag overrides.  Subcommands: run, sweep, basis-decay,
gen-medium, reference, validate.
"""

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import cem, models, spectral
from .assembly import build_forms, element_loads
from .errors import CemhelmError, IndivisibleMesh, IoError
from .medium import save_raster, synthesize_channels
from .metrics import relative_errors
from .models import instantiate
from .reference import export_field, fine_load, solve_fine

log = logging.getLogger("cemhelm")

__all__ = ["RunConfig", "validate_resolution", "run", "sweep", "basis_decay", "gen_medium", "main"]


@dataclass
class RunConfig:
    model: str = "model1"
    nx: int = 200
    NH: int = 10
    m: int = 2
    nbf: int = 4
    k: float = 16.0
    epsilon: float = None
    medium: str = None
    source: str = None
    seed: int = 0
    out: str = None
    strict_zero_trace: bool = False
    dump_eigs: str = None
    dump_basis: str = None  # "j,i" -> writes basis_<j>_<i>.csv next to the report
    synthesize: bool = False
    stilde_rule: str = "simplified"
    trace_weight: float = 0.0  # 0 = plain auxiliary form, negative = auto (96/H^2)
    corrector: bool = True  # localized data correctors alongside the basis solves
    channels: int = 8
    contrast: float = None
    H_list: tuple = None  # NH values for sweeps
    m_list: tuple = None
    j: int = 0
    i: int = 0

    def validate(self):
        if self.NH < 1 or self.nx % self.NH != 0:
            raise IndivisibleMesh(f"NH={self.NH} does not divide nx={self.nx}")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.nbf < 1:
            raise ValueError("nbf must be >= 1")
        if self.k <= 0.0:
            raise ValueError("k must be positive")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["H_list"] = list(self.H_list) if self.H_list else None
        d["m_list"] = list(self.m_list) if self.m_list else None
        return d


_INT_LISTS = ("H_list", "m_list")


def _coerce(name, value):
    ftypes = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    if name not in ftypes:
        raise ValueError(f"unknown config key {name!r}")
    if name in _INT_LISTS:
        return tuple(int(tok) for tok in str(value).replace(",", " ").split())
    if name in ("epsilon", "k", "contrast", "trace_weight"):
        return float(value)
    if name in ("nx", "NH", "m", "nbf", "seed", "channels", "j", "i"):
        return int(value)
    if name in ("strict_zero_trace", "synthesize", "corrector"):
        if isinstance(value, bool):
            return value
        return str(value).strip().lower() in ("1", "true", "yes", "on")
    return value


def load_config(path):
    cfg = RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, value = line.split("=", 1)
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise ValueError(f"bad config line {raw!r}")
                key, value = parts
            setattr(cfg, key.strip(), _coerce(key.strip(), value.strip()))
    return cfg


def validate_resolution(config, epsilon=None):
    """Diagnostics for the resolution and oversampling conditions (warn only:
    the constant in the sharp condition is not computable)."""
    eps = epsilon if epsilon is not None else (config.epsilon or 1.0)
    H = 1.0 / config.NH
    khe = config.k * H / eps
    floor = abs(math.log(config.k / eps))
    warnings = []
    if khe > 1.0:
        warnings.append(
            f"resolution condition k*H/eps = {khe:.3g} > 1; coarse errors may stagnate"
        )
    if config.m < floor:
        warnings.append(
            f"oversampling m = {config.m} below |log(k/eps)| = {floor:.3g}"
        )
    for w in warnings:
        log.warning(w)
    return {"k_H_over_eps": khe, "oversampling_floor": floor, "warnings": warnings}


def _problem(config):
    return instantiate(
        config.model,
        nx=config.nx,
        k=config.k,
        medium_path=config.medium,
        source_path=config.source,
        synthesize=config.synthesize,
        seed=config.seed,
        contrast=config.contrast,
        channels=config.channels,
        epsilon=config.epsilon,
    )


class _Pipeline:
    """Shared state for one (model, nx, NH): forms and spectral basis are
    reused across oversampling values so sweeps match standalone runs."""

    def __init__(self, config, spec=None):
        from .grid import build_coarse_grid

        self.config = config
        self.timings = {}
        t0 = time.perf_counter()
        self.spec = spec or _problem(config)
        self.timings["model"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.coarse = build_coarse_grid(self.spec.grid, config.NH)
        self.forms = build_forms(
            self.spec.grid, self.coarse, self.spec.medium, self.spec.k,
            stilde_rule=config.stilde_rule,
        )
        self.timings["forms"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.P = spectral.build_projection(
            self.forms, config.nbf, trace_weight=config.trace_weight
        )
        self.timings["spectral"] = time.perf_counter() - t0

        self.loads = fine_load(self.spec)
        self._reference = None

    def reference(self):
        """Fine Q1 solution of the same problem: errors are multiscale errors,
        for the homogeneous benchmark too (its exact plane wave would add the
        fine grid's own discretization error)."""
        if self._reference is None:
            t0 = time.perf_counter()
            self._reference = solve_fine(self.spec, forms=self.forms).values
            self.timings["reference"] = time.perf_counter() - t0
        return self._reference

    def solve(self, m):
        t0 = time.perf_counter()
        blocks = None
        if self.config.corrector:
            blocks = element_loads(self.spec.grid, self.coarse, self.spec.f, self.spec.g)
        space = cem.build_space(
            self.forms, self.P, m, self.config.strict_zero_trace, load_blocks=blocks
        )
        self.timings["basis"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        system = cem.assemble_coarse(space, self.forms, self.loads)
        u_ms, coeffs = cem.solve_multiscale(system, space, forms=self.forms)
        self.timings["coarse_solve"] = time.perf_counter() - t0
        return u_ms, space, system, coeffs

    def errors(self, m):
        u_ms, space, _, _ = self.solve(m)
        u_ref = self.reference()
        t0 = time.perf_counter()
        report = relative_errors(
            u_ref, u_ms, self.forms,
            meta={
                "H": self.coarse.H, "m": m, "nbf": self.config.nbf,
                "k": self.spec.k, "model": self.spec.model,
            },
        )
        self.timings["errors"] = time.perf_counter() - t0
        return report, u_ms, space


def run(config):
    """Full pipeline for one configuration; returns the report dict."""
    config.validate()
    pipe = _Pipeline(config)
    resolution = validate_resolution(config, epsilon=pipe.spec.medium.epsilon)
    report, u_ms, space = pipe.errors(config.m)

    out = {
        "config": config.to_dict(),
        "errors": {"e_l2": report.e_l2, "e_energy": report.e_energy},
        "norms": report.norms,
        "coarse_dofs": space.n_basis,
        "resolution": {k: v for k, v in resolution.items()},
        "timings": pipe.timings,
    }
    if config.dump_eigs:
        spectral.dump_eigenvalues(pipe.P, config.dump_eigs)
    if config.dump_basis:
        j, i = (int(t) for t in config.dump_basis.split(","))
        cem.dump_basis(space, pipe.spec.grid, j, i, f"basis_{j}_{i}.csv")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return out


def sweep(config, out_path=None):
    """Error table over H_list x m_list; failed cells are recorded as nan."""
    config.validate()
    NH_values = config.H_list or (config.NH,)
    m_values = config.m_list or (config.m,)
    spec = _problem(config)
    rows = []
    ok = True
    for NH in sorted(NH_values):  # H descending = NH ascending
        pipe = None
        try:
            cell_cfg = dataclasses.replace(config, NH=NH)
            cell_cfg.validate()
            pipe = _Pipeline(cell_cfg, spec=spec)
        except CemhelmError as exc:
            log.error("sweep column NH=%d failed: %s", NH, exc)
            ok = False
        for m in sorted(m_values):
            t0 = time.perf_counter()
            try:
                if pipe is None:
                    raise IndivisibleMesh(f"NH={NH} does not divide nx={config.nx}")
                report, _, space = pipe.errors(m)
                e_l2, e_a, dofs = report.e_l2, report.e_energy, space.n_basis
            except CemhelmError as exc:
                log.error("sweep cell NH=%d m=%d failed: %s", NH, m, exc)
                e_l2 = e_a = float("nan")
                dofs = NH * NH * config.nbf
                ok = False
            seconds = time.perf_counter() - t0
            rows.append(
                {
                    "H": 1.0 / NH, "m": m, "nbf": config.nbf,
                    "e_l2": e_l2, "e_energy": e_a,
                    "coarse_dofs": dofs, "seconds": seconds,
                }
            )
    path = out_path or config.out
    if path:
        write_sweep_csv(rows, path)
    return rows, ok


def write_sweep_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["H", "m", "nbf", "e_l2", "e_energy", "coarse_dofs", "seconds"])
        for r in rows:
            writer.writerow(
                [
                    repr(r["H"]), r["m"], r["nbf"],
                    repr(float(r["e_l2"])), repr(float(r["e_energy"])),
                    r["coarse_dofs"], f"{r['seconds']:.3f}",
                ]
            )


def basis_decay(config, out_path=None):
    """Tail energies of one unlocalized basis over the m list."""
    config.validate()
    m_values = list(config.m_list or (1, 2, 3))
    pipe = _Pipeline(config)
    tails, beta_hat = cem.measure_decay(config.j, config.i, pipe.forms, pipe.P, m_values)
    path = out_path or config.out
    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "tail_energy", "beta_hat"])
            for m, t in zip(m_values, tails):
                writer.writerow([m, repr(float(t)), repr(float(beta_hat))])
    return tails, beta_hat


def gen_medium(config, out_path=None):
    path = out_path or config.out
    if not path:
        raise IoError("gen-medium needs an output path (--out)")
    med = synthesize_channels(
        config.nx, config.nx, config.seed,
        config.contrast if config.contrast is not None else 1e-3,
        config.channels,
    )
    try:
        save_raster(med, path)
    except OSError as exc:
        raise IoError(f"cannot write raster {path}: {exc}") from exc
    return med


def reference_run(config, out_path=None):
    config.validate()
    spec = _problem(config)
    sol = solve_fine(spec)
    path = out_path or config.out
    if path:
        export_field(spec.grid, sol.values, path)
    return sol


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--model", choices=["model1", "model2", "model3", "custom"])
    p.add_argument("--nx", type=int)
    p.add_argument("--NH", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--nbf", type=int)
    p.add_argument("--k", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--medium")
    p.add_argument("--source")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--strict-zero-trace", action="store_true", dest="strict_zero_trace", default=None)
    p.add_argument("--dump-eigs", dest="dump_eigs")
    p.add_argument("--dump-basis", dest="dump_basis", metavar="J,I")
    p.add_argument("--synthesize", action="store_true", default=None)
    p.add_argument("--stilde-rule", dest="stilde_rule", choices=["simplified", "lagrange"])
    p.add_argument("--trace-weight", dest="trace_weight", type=float)
    p.add_argument("--no-corrector", action="store_false", dest="corrector", default=None)
    p.add_argument("--channels", type=int)
    p.add_argument("--contrast", type=float)
    p.add_argument("--H-list", dest="H_list", help="NH values, e.g. '10,20,40'")
    p.add_argument("--m-list", dest="m_list", help="oversampling layers, e.g. '2,3,4'")
    p.add_argument("--j", type=int)
    p.add_argument("--i", type=int)


def _config_from(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, _coerce(f.name, v))
    return cfg


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="cemhelm")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "basis-decay", "gen-medium", "reference", "validate"):
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)

    try:
        cfg = _config_from(args)
        if args.command == "run":
            out = run(cfg)
            print(json.dumps(out, indent=2, sort_keys=True))
            finite = all(np.isfinite(v) for v in out["errors"].values())
            return 0 if finite else 1
        if args.command == "sweep":
            rows, ok = sweep(cfg)
            for r in rows:
                print(
                    f"H={r['H']:.6g} m={r['m']} nbf={r['nbf']} "
                    f"e_l2={r['e_l2']:.6g} e_energy={r['e_energy']:.6g}"
                )
            return 0 if ok else 1
        if args.command == "basis-decay":
            tails, beta_hat = basis_decay(cfg)
            for m, t in zip(cfg.m_list or (1, 2, 3), tails):
                print(f"m={m} tail_energy={t:.6g}")
            print(f"beta_hat={beta_hat:.6g}")
            return 0
        if args.command == "gen-medium":
            gen_medium(cfg)
            print(f"wrote {cfg.out}")
            return 0
        if args.command == "reference":
            reference_run(cfg)
            return 0
        if args.command == "validate":
            cfg.validate()
            diag = validate_resolution(cfg)
            print(json.dumps(diag, indent=2, sort_keys=True))
            return 0
    except (CemhelmError, ValueError) as exc:  # bad input: a message, not a traceback
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
