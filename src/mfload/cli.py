"""Command-line surface: generate, analyze, simulate, sweep.

Exit codes: 0 on success, 1 for configuration or validation problems
(bad flags, malformed config, invalid inputs), 2 for runtime numerical
failures (calibration that cannot reach its targets, degenerate series).

All outputs are UTF-8 CSV with \\n line endings and a header row; a run
writes its provenance (config digest, measured traffic properties,
timestamps) to manifest.json next to the CSVs. Identical config + seed
gives byte-identical CSVs; only the manifest timestamps differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import fractal, metrics, traffic
from .config import _named, config_digest, parse_config, parse_sweep_grid
from .errors import CalibrationError, ConfigError, EstimationError
from .simulation import CalibrationTarget, ScenarioConfig, resolve_traffic, run_scenario

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; our discipline wants 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="mfload", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic traffic series CSV")
    gen.add_argument("--hurst", type=float, required=True, help="target Hurst exponent")
    gen.add_argument(
        "--delta-h",
        type=float,
        default=0.0,
        help="target h(q) width; 0 selects plain fGn, larger values calibrate a composite",
    )
    gen.add_argument("--length", type=int, default=16384, help="series length in ticks")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", default="out", help="output directory")

    ana = sub.add_parser("analyze", help="estimate H, h(q) and delta_h from a series CSV")
    ana.add_argument("series", help="path to a tick,value CSV")
    ana.add_argument("--q-min", type=float, default=None)
    ana.add_argument("--q-max", type=float, default=None)
    ana.add_argument("--q-steps", type=int, default=None)
    ana.add_argument("--out", default="out")

    simp = sub.add_parser("simulate", help="run one scenario from a config file")
    simp.add_argument("--config", required=True)
    simp.add_argument("--seed", type=int, default=None, help="override the config seed")
    simp.add_argument("--out", default="out")

    swp = sub.add_parser("sweep", help="run the configured (H, delta_h) grid")
    swp.add_argument("--config", required=True)
    swp.add_argument("--seed", type=int, default=None, help="override the config seed")
    swp.add_argument("--out", default="out")
    return parser


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _q_grid(args) -> tuple[float, ...]:
    flags = (args.q_min, args.q_max, args.q_steps)
    if all(v is None for v in flags):
        return fractal.DEFAULT_Q_GRID
    q_min = args.q_min if args.q_min is not None else -5.0
    q_max = args.q_max if args.q_max is not None else 5.0
    steps = args.q_steps if args.q_steps is not None else 9
    if not 2 <= steps <= 1000:
        raise ConfigError(f"--q-steps must lie in [2, 1000], got {steps}")
    for flag, v in (("--q-min", q_min), ("--q-max", q_max)):
        if not np.isfinite(v):
            raise ConfigError(f"{flag} must be finite, got {v}")
    if q_min >= q_max:
        raise ConfigError("--q-min must be below --q-max")
    if not np.isfinite(q_max - q_min):
        raise ConfigError(f"--q-min and --q-max must lie a finite distance apart, got {q_min} and {q_max}")
    grid = set(np.linspace(q_min, q_max, steps).tolist())
    grid.add(2.0)  # h(2) anchors every spectrum
    return tuple(sorted(grid))


def cmd_generate(args) -> int:
    traffic.check_length(args.length, 64, "--length")
    if args.delta_h == 0.0:
        # fGn's own range; a calibrated series checks the narrower target range
        traffic.check_hurst(args.hurst, "--hurst")
        series = traffic.generate_fgn(args.hurst, args.length, args.seed)
    else:
        traffic.check_calibration_targets(args.hurst, args.delta_h, "--hurst", "--delta-h")
        meta = traffic.calibrate(args.hurst, args.delta_h)
        series = traffic.generate_calibrated(meta, args.length, args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "series.csv")
    traffic.write_series_csv(path, series.values[: args.length])
    print(f"wrote {path} ({args.length} ticks)")
    return 0


def cmd_analyze(args) -> int:
    values = traffic.read_series_csv(args.series)
    spectrum = fractal.mfdfa(values, _q_grid(args))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "spectrum.csv")
    fractal.write_spectrum_csv(path, spectrum)
    print(f"# H={spectrum.h_at(2.0):.12g} dH={spectrum.delta_h:.12g}")
    return 0


def _final_quarter_mean(reports) -> float:
    tail = reports[3 * len(reports) // 4 :]
    return float(np.mean([r.isl_tot for r in tail])) if tail else 0.0


def _final_half_cv(reports) -> float:
    tail = [r.isl_tot for r in reports[len(reports) // 2 :]]
    if not tail:
        return 0.0
    mean = float(np.mean(tail))
    if mean == 0.0:
        return 0.0
    return float(np.std(tail) / mean)


def _run_one(config: ScenarioConfig, out_dir: str, probes: dict | None = None) -> tuple:
    """Simulate one scenario into `out_dir`.

    Returns its summary (H, delta_h measured, mean isl_tot over the final
    quarter, cv of isl_tot over the final half). `probes` is the
    calibration probe memo, shared by the cells of a sweep.
    """
    started = _now()

    # one realization feeds both the measurement and the run
    series = resolve_traffic(config, probes)
    used = series.values[: config.horizon]
    hurst, delta_h = traffic.measure_scaling(used)
    # the arrival-mean cap needs the realized series, so its rejection is named here
    reports = _named("sim", run_scenario, config, series)
    mean = _final_quarter_mean(reports)
    os.makedirs(out_dir, exist_ok=True)
    series_path = os.path.join(out_dir, "series.csv")
    report_path = os.path.join(out_dir, "report.csv")
    sil_path = os.path.join(out_dir, "sil.csv")
    traffic.write_series_csv(series_path, used)
    summary = f"scenario={config.name} H={hurst:.12g} dH={delta_h:.12g} mean_isl_tot={mean:.12g}"
    metrics.write_report_csv(report_path, reports, config.window, summary=summary)
    metrics.write_sil_csv(sil_path, reports, config.window, [s.id for s in config.cluster])

    manifest = {
        "scenario": config.name,
        "config_digest": config_digest(config),
        "outputs": sorted(os.path.basename(p) for p in (series_path, report_path, sil_path)),
        "measured": {"hurst": hurst, "delta_h": delta_h},
        "timestamps": {"start": started, "end": _now()},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return hurst, delta_h, mean, _final_half_cv(reports)


def cmd_simulate(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    hurst, delta_h, mean, _ = _run_one(config, args.out)
    print(f"scenario={config.name} H={hurst:.4g} dH={delta_h:.4g} mean_isl_tot={mean:.4g}")
    return 0


def cmd_sweep(args) -> int:
    base = parse_config(args.config)
    if args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    cells, budget = parse_sweep_grid(args.config)
    named = {}
    for hurst, delta_h in cells:
        name = f"h{hurst:g}_dh{delta_h:g}"
        if name in named:
            h0, dh0 = named[name]
            raise ConfigError(
                f"sweep.grid: cells {h0!r}:{dh0!r} and {hurst!r}:{delta_h!r} "
                f"both write {name}"
            )
        named[name] = (hurst, delta_h)

    # one probe memo per sweep: the cells' calibrations revisit the same probes
    probes = {}
    rows = {}
    for name, (hurst, delta_h) in named.items():
        cell_config = dataclasses.replace(
            base,
            name=name,
            traffic=CalibrationTarget(hurst=hurst, delta_h=delta_h, budget=budget),
        )
        try:
            summary = _run_one(cell_config, os.path.join(args.out, name), probes)
        except CalibrationError as exc:
            raise CalibrationError(
                f"sweep.grid: cell {hurst!r}:{delta_h!r}: {exc}",
                exc.best_meta, exc.measured, exc.residuals,
            ) from exc
        rows[name] = ",".join([name] + [f"{v:.12g}" for v in (hurst, delta_h, *summary)])

    header = (
        "scenario,H_target,dH_target,H_measured,dH_measured,"
        "mean_isl_tot_final_quarter,cv_isl_tot_final_half"
    )
    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header] + [rows[name] for name in sorted(rows)]) + "\n")
    print(f"wrote {summary_path} ({len(rows)} scenarios)")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None:
            traffic.check_seed(args.seed, "--seed")
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
