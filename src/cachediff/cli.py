"""Command line interface.

Subcommands: ``run`` (denoise under a strategy, write report/latent/FLOPs),
``diagnose`` (baseline run capturing every key step, write diagnostic CSV
series), ``ablate`` (all strategy variants side by side), ``compare`` (two
run reports, speedup and output equality).

Exit codes: 0 success, 1 configuration error, 2 runtime invariant
violation.  Errors print a single machine-parsable line starting with
``error: config:`` or ``error: invariant:``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigError, InvariantError
from .profiler import write_csv
from .runner import (
    compare_reports,
    execute_ablation,
    execute_diagnostics,
    execute_run,
)
from .tensor_io import write_tns

_PLAN_KEYS = {"N": "schedule.block_size", "S": "schedule.steps", "frac": "schedule.t_thresh_fraction"}


def _plan_sets(spec: str) -> list[str]:
    sets = []
    for item in spec.split(","):
        if "=" not in item:
            raise ConfigError(f"--plan entries look like N=3 or S=40, got {item!r}")
        key, val = item.split("=", 1)
        if key not in _PLAN_KEYS:
            raise ConfigError(f"--plan key must be one of {sorted(_PLAN_KEYS)}, got {key!r}")
        sets.append(f"{_PLAN_KEYS[key]}={val}")
    return sets


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                   help="dotted config override, e.g. schedule.steps=20")


def _run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=("baseline", "lcp", "lcp_dfa", "lcp_dfa_rm"))
    p.add_argument("--estimation", choices=("on", "off"))
    p.add_argument("--workers", type=int)
    p.add_argument("--noise-seed", type=int)
    p.add_argument("--weights-seed", type=int)
    p.add_argument("--mask", help="mask spec: rect:x0,y0,x1,y1 | frac:F | file path")
    p.add_argument("--frames", type=int, help="total frames across clips")
    p.add_argument("--plan", help="plan shorthand, e.g. N=3,S=40")


def _load(args: argparse.Namespace) -> RunConfig:
    sets = list(args.set)
    if getattr(args, "plan", None):
        sets += _plan_sets(args.plan)
    if getattr(args, "strategy", None):
        sets.append(f"strategy.variant={args.strategy}")
    if getattr(args, "estimation", None):
        sets.append(f"strategy.estimation={args.estimation == 'on'}")
    if getattr(args, "workers", None) is not None:
        sets.append(f"strategy.workers={args.workers}")
    if getattr(args, "noise_seed", None) is not None:
        sets.append(f"seeds.noise={args.noise_seed}")
    if getattr(args, "weights_seed", None) is not None:
        sets.append(f"seeds.weights={args.weights_seed}")
    if getattr(args, "frames", None) is not None:
        sets.append(f"run.total_frames={args.frames}")
    rc = load_config(args.config, sets)
    if getattr(args, "mask", None):
        rc = dataclasses.replace(rc, mask=args.mask)
    if args.out:
        rc = dataclasses.replace(rc, run=dataclasses.replace(rc.run, out_dir=args.out))
    return rc


def _outdir(rc: RunConfig) -> Path:
    out = Path(rc.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    rc = _load(args)
    res = execute_run(rc)
    out = _outdir(rc)
    (out / "report.json").write_text(json.dumps(res.report, indent=2) + "\n")
    write_tns(out / "final.tns", res.final)
    agg: dict[tuple[int, str], int] = {}
    order: list[tuple[int, str]] = []
    for rep in res.clip_reports:
        for s in rep["per_step"]:
            key = (s["t"], s["kind"])
            if key not in agg:
                agg[key] = 0
                order.append(key)
            agg[key] += s["flops"]
    write_csv(out / "flops.csv", ["timestep", "kind", "flops"],
              [(t, kind, agg[(t, kind)]) for t, kind in order])
    totals = res.report["totals"]
    print(
        f"run ok: variant={rc.strategy.variant} clips={len(res.clip_reports)} "
        f"steps={len(res.report['plan']['sampled'])} flops={totals['flops']} "
        f"modeled_ms={totals['modeled_wall_ns'] / 1e6:.2f} "
        f"final={res.report['final_checksum']} out={out}"
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    rc = _load(args)
    diag = execute_diagnostics(rc)
    out = _outdir(rc)
    steps = range(1, len(diag.sampled))
    write_csv(out / "l2_series.csv", ["step", "distance"],
              [(i, f"{v:.8e}") for i, v in zip(steps, diag.feature_l2)])
    write_csv(out / "latent_l2_series.csv", ["step", "distance"],
              [(i, f"{v:.8e}") for i, v in zip(steps, diag.latent_l2)])
    write_csv(out / "noise_l2_series.csv", ["step", "distance"],
              [(i, f"{v:.8e}") for i, v in zip(steps, diag.noise_l2)])
    n = diag.feature_cosine.shape[0]
    write_csv(out / "cosine_matrix.csv", ["i", "j", "cosine"],
              [(i, j, f"{diag.feature_cosine[i, j]:.8f}") for i in range(n) for j in range(n)])
    write_csv(out / "bg_l2_series.csv", ["site", "step", "distance"],
              [(site, i, f"{v:.8e}")
               for site, series in sorted(diag.bg_l2.items())
               for i, v in zip(range(1, len(series) + 1), series)])
    write_csv(out / "fg_mass.csv", ["group", "mass"],
              [(g, f"{m:.8f}") for g, m in diag.fg_mass.items()])
    print(
        f"diagnose ok: steps={len(diag.sampled)} "
        f"fg_mass_fg_ref={diag.fg_mass.get('fg_ref', float('nan')):.4f} out={out}"
    )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    rc = _load(args)
    rows = execute_ablation(rc)
    out = _outdir(rc)
    header = ["label", "variant", "estimation", "flops", "modeled_wall_ns",
              "speedup", "flops_ratio", "rel_l2_vs_baseline"]
    write_csv(out / "ablation.csv", header,
              [[r["label"], r["variant"], r["estimation"], r["flops"], r["modeled_wall_ns"],
                f"{r['speedup']:.2f}", f"{r['flops_ratio']:.3f}",
                f"{r['rel_l2_vs_baseline']:.8e}"] for r in rows])
    (out / "ablation.json").write_text(json.dumps(rows, indent=2) + "\n")
    for r in rows:
        print(
            f"ablate {r['label']}: flops={r['flops']} speedup={r['speedup']:.2f} "
            f"rel_l2={r['rel_l2_vs_baseline']:.3e}"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = []
    for path in (args.baseline, args.accelerated):
        try:
            reports.append(json.loads(Path(path).read_text()))
        except OSError as exc:
            raise ConfigError(f"cannot read report {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed report {path}: {exc}") from exc
    result = compare_reports(reports[0], reports[1])
    line = json.dumps(result)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cachediff", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="denoise under a strategy and write artifacts")
    _common_flags(p)
    _run_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("diagnose", help="baseline run capturing every key step, CSV series out")
    _common_flags(p)
    p.add_argument("--mask", help="mask spec override")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("ablate", help="run all strategy variants side by side")
    _common_flags(p)
    p.add_argument("--mask", help="mask spec override")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("compare", help="compare two run reports (baseline, accelerated)")
    p.add_argument("baseline")
    p.add_argument("accelerated")
    p.add_argument("--out", help="write the comparison JSON here as well")
    p.set_defaults(fn=_cmd_compare)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: invariant: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
