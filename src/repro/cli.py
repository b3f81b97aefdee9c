"""``python -m repro`` — reduce, sweep, simulate and inspect from specs.

The CLI is the zero-import entry point to the pipeline: every command
takes a JSON netlist spec (the :meth:`repro.circuits.Netlist.to_dict`
format, or a ``{"generator": ...}`` reference to a named example
circuit), runs the declarative pipeline of :mod:`repro.pipeline`, and
prints a parseable JSON report to stdout.

Commands::

    python -m repro info     spec.json
    python -m repro reduce   spec.json --orders 6,3,0 --store ./models
    python -m repro sweep    spec.json --omega-start 0.02 --omega-stop 0.5
    python -m repro simulate spec.json --source sine:amplitude=0.1 \
        --t-end 10 --dt 0.02
    python -m repro store verify ./models

A spec file may embed default job sections (``"reduce"``, ``"sweep"``,
``"transient"`` — the dict forms the job classes coerce from); command
line flags override them.  ``--store DIR`` routes reductions through a
content-addressed :class:`~repro.store.ModelStore`, so re-running a
command on an unchanged spec serves the reduction from disk.

Fault tolerance: ``--checkpoint [DIR]`` snapshots the reduction at
stage boundaries so a killed build resumes bit-identically (``--resume``
asserts committed state exists), and ``store verify`` re-checks every
artifact's basis SHA-256 digest, quarantining corrupt entries (exit 1
when any are found).

Exit codes: 0 on success, 2 on a usage/spec error, 1 on an internal
numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

from .analysis.reporting import write_csv_report, write_json_report
from .errors import ReproError, ValidationError
from .serialize import json_safe
from .serve import (
    InfoRequest,
    McRequest,
    ReduceRequest,
    ReproService,
    SimulateRequest,
    SweepRequest,
    run_daemon,
)
from .store import ModelStore

__all__ = ["main", "build_parser"]


def _parse_orders(text):
    try:
        parts = tuple(int(p) for p in str(text).split(","))
    except ValueError as exc:
        raise ValidationError(
            f"--orders must be comma-separated integers, got {text!r}"
        ) from exc
    if len(parts) != 3:
        raise ValidationError(
            f"--orders must be a q1,q2,q3 triple, got {text!r}"
        )
    return parts


def _parse_points(text):
    points = []
    for part in str(text).split(","):
        part = part.strip()
        try:
            value = complex(part)
        except ValueError as exc:
            raise ValidationError(
                f"bad expansion point {part!r} in {text!r}"
            ) from exc
        points.append(value.real if value.imag == 0.0 else value)
    return tuple(points)


def _parse_source(text):
    """``kind:key=value,key=value`` → a source-spec dict."""
    kind, _, params = str(text).partition(":")
    spec = {"kind": kind.strip()}
    if params.strip():
        for pair in params.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValidationError(
                    f"source parameter {pair!r} is not key=value "
                    f"(in {text!r})"
                )
            try:
                spec[key.strip()] = float(value)
            except ValueError as exc:
                raise ValidationError(
                    f"source parameter {key.strip()!r} must be numeric, "
                    f"got {value!r}"
                ) from exc
    return spec


def _load_spec(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read spec {path} ({exc})") from exc
    try:
        spec = json.loads(text)
    except ValueError as exc:
        raise ValidationError(
            f"spec {path} is not valid JSON ({exc})"
        ) from exc
    if not isinstance(spec, dict):
        raise ValidationError(f"spec {path} must hold a JSON object")
    return spec


def _sparse_flag(args):
    if getattr(args, "sparse", False):
        return True
    if getattr(args, "dense", False):
        return False
    return None


def _reduce_job(args, spec, required):
    """Merge the spec's ``reduce`` section with CLI flags."""
    section = spec.get("reduce")
    job = dict(section) if isinstance(section, dict) else {}
    if getattr(args, "orders", None):
        job["orders"] = _parse_orders(args.orders)
    if getattr(args, "expansion_points", None):
        job["expansion_points"] = _parse_points(args.expansion_points)
    if getattr(args, "strategy", None):
        job["strategy"] = args.strategy
    if not job:
        if required:
            raise ValidationError(
                "no reduction configured: pass --orders q1,q2,q3 or add "
                "a 'reduce' section to the spec"
            )
        return None
    return job


def _add_spec_argument(parser):
    parser.add_argument("spec", help="JSON netlist spec file")
    form = parser.add_mutually_exclusive_group()
    form.add_argument(
        "--sparse", action="store_true",
        help="force CSR (sparse fast path) MNA assembly",
    )
    form.add_argument(
        "--dense", action="store_true", help="force dense MNA assembly"
    )


def _add_reduce_arguments(parser):
    parser.add_argument(
        "--orders", help="moment orders q1,q2,q3 (e.g. 6,3,0)"
    )
    parser.add_argument(
        "--expansion-points",
        help="comma-separated expansion points (default 0.0)",
    )
    parser.add_argument(
        "--strategy", choices=("coupled", "decoupled"),
        help="H2 subspace strategy",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="serve/record reductions through a ModelStore directory",
    )
    parser.add_argument(
        "--checkpoint", nargs="?", const=True, metavar="DIR",
        help="checkpoint the reduction so a killed build resumes "
        "bit-identically; with no DIR the state is keyed under --store",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="require committed checkpoint state to resume from "
        "(fails instead of silently recomputing)",
    )


def _add_output_arguments(parser):
    parser.add_argument(
        "--out", metavar="FILE", help="also write the JSON report here"
    )
    parser.add_argument(
        "--csv", metavar="FILE",
        help="write the tabular result (sweep grid / transient trace) "
        "as CSV",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Associated-transform NMOR pipeline (DAC'12 repro): "
        "reduce circuits, sweep distortion, simulate transients — from "
        "JSON netlist specs, through a content-addressed model store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser(
        "info", help="compile the spec and report system structure"
    )
    _add_spec_argument(p_info)
    p_info.add_argument(
        "--out", metavar="FILE", help="also write the JSON report here"
    )

    p_reduce = sub.add_parser(
        "reduce", help="build (or fetch) a ROM and report it"
    )
    _add_spec_argument(p_reduce)
    _add_reduce_arguments(p_reduce)
    p_reduce.add_argument(
        "--artifact", metavar="FILE",
        help="save the reduction artifact to this .npz path",
    )
    p_reduce.add_argument(
        "--out", metavar="FILE", help="also write the JSON report here"
    )

    p_sweep = sub.add_parser(
        "sweep", help="distortion sweep (on the ROM when orders given)"
    )
    _add_spec_argument(p_sweep)
    _add_reduce_arguments(p_sweep)
    p_sweep.add_argument("--omega-start", type=float)
    p_sweep.add_argument("--omega-stop", type=float)
    p_sweep.add_argument("--points", type=int)
    p_sweep.add_argument("--amplitude", type=float)
    p_sweep.add_argument(
        "--compare-full", action="store_true",
        help="also sweep the full model and report ROM deviation",
    )
    _add_output_arguments(p_sweep)

    p_sim = sub.add_parser(
        "simulate", help="transient simulation (ROM when orders given)"
    )
    _add_spec_argument(p_sim)
    _add_reduce_arguments(p_sim)
    p_sim.add_argument(
        "--source",
        help="input signal, kind:key=value,... "
        "(e.g. sine:amplitude=0.08,frequency=0.08)",
    )
    p_sim.add_argument("--t-end", type=float)
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument(
        "--compare-full", action="store_true",
        help="also integrate the full model and report ROM error",
    )
    _add_output_arguments(p_sim)

    p_mc = sub.add_parser(
        "mc",
        help="parametric multi-corner / Monte-Carlo distortion "
        "distributions over a parameter-annotated spec",
    )
    _add_spec_argument(p_mc)
    _add_reduce_arguments(p_mc)
    p_mc.add_argument("--omega-start", type=float)
    p_mc.add_argument("--omega-stop", type=float)
    p_mc.add_argument("--points", type=int)
    p_mc.add_argument("--amplitude", type=float)
    p_mc.add_argument(
        "--corners", type=int, metavar="N",
        help="grid points per ranged-parameter axis",
    )
    p_mc.add_argument(
        "--draws", type=int, metavar="N",
        help="Monte-Carlo draws on top of the corner grid",
    )
    p_mc.add_argument(
        "--seed", type=int, metavar="SEED",
        help="Monte-Carlo seed (recorded in the report)",
    )
    p_mc.add_argument(
        "--interp-tol", type=float, metavar="TOL",
        help="distortion tolerance of the ROM-interpolation tier",
    )
    p_mc.add_argument(
        "--no-warm", action="store_true",
        help="disable the warm-start reuse tier",
    )
    p_mc.add_argument(
        "--no-interp", action="store_true",
        help="disable the ROM-interpolation reuse tier",
    )
    # _sweep_job reads compare_full; for mc the per-corner accuracy
    # check is the interp tier's probe test, so the flag is fixed off.
    p_mc.set_defaults(compare_full=False)
    _add_output_arguments(p_mc)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived HTTP/JSON daemon serving the pipeline verbs "
        "(POST /v1/info|reduce|sweep|simulate, GET /healthz|/metrics)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="bind port (0 picks a free port; the daemon prints the "
        "resolved URL on stdout)",
    )
    p_serve.add_argument(
        "--store", metavar="DIR",
        help="serve/record reductions through a ModelStore directory",
    )
    p_serve.add_argument(
        "--hot-cache", type=int, default=8, metavar="N",
        help="entries kept in the in-memory hot-ROM cache (0 disables)",
    )
    p_serve.add_argument(
        "--preload", type=int, default=0, metavar="N",
        help="warm the hot cache with the N most recently accessed "
        "store entries before accepting requests",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="maximum in-flight requests; excess arrivals get 429 + "
        "Retry-After instead of queueing unboundedly",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline (504 past it; shared caches stay "
        "intact)",
    )
    p_serve.add_argument(
        "--stats-interval", type=float, default=None, metavar="SECONDS",
        help="print a one-line serving-stats heartbeat to stderr at "
        "this period",
    )

    p_store = sub.add_parser(
        "store", help="model-store maintenance (verify, ls, gc)"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_verify = store_sub.add_parser(
        "verify",
        help="re-load every artifact and re-check its basis SHA-256 "
        "digest; quarantines corrupt entries (exit 1 when any found)",
    )
    p_verify.add_argument("root", help="ModelStore directory")
    p_verify.add_argument(
        "--no-quarantine", action="store_true",
        help="report corrupt entries without moving them aside",
    )
    p_verify.add_argument(
        "--out", metavar="FILE", help="also write the JSON report here"
    )
    p_ls = store_sub.add_parser(
        "ls",
        help="list entries (most recently accessed first) with per-entry "
        "sizes and totals",
    )
    p_ls.add_argument("root", help="ModelStore directory")
    p_ls.add_argument(
        "--out", metavar="FILE", help="also write the JSON report here"
    )
    p_gc = store_sub.add_parser(
        "gc",
        help="evict entries by idle TTL and/or until the store fits a "
        "size budget (oldest last_access first)",
    )
    p_gc.add_argument("root", help="ModelStore directory")
    p_gc.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="size budget the store must fit after GC, e.g. '512m' "
        "(default: no size limit)",
    )
    p_gc.add_argument(
        "--ttl", metavar="AGE", default=None,
        help="evict entries idle longer than AGE, e.g. '7d', '12h' "
        "(default: no TTL)",
    )
    p_gc.add_argument(
        "--out", metavar="FILE", help="also write the JSON report here"
    )
    return parser


def _sweep_job(args, spec):
    section = spec.get("sweep")
    job = dict(section) if isinstance(section, dict) else {}
    grid_flags = (args.omega_start, args.omega_stop, args.points)
    if any(flag is not None for flag in grid_flags):
        # CLI flags override the spec grid wholesale: an explicit
        # "omegas" list in the spec would otherwise shadow start/stop/
        # points inside SweepJob and the flags would silently no-op.
        job.pop("omegas", None)
        if args.omega_start is None or args.omega_stop is None:
            if "omegas" in (section or {}):
                raise ValidationError(
                    "the spec's sweep grid is an explicit omegas list; "
                    "overriding it needs both --omega-start and "
                    "--omega-stop"
                )
    if args.omega_start is not None:
        job["start"] = args.omega_start
    if args.omega_stop is not None:
        job["stop"] = args.omega_stop
    if args.points is not None:
        job["points"] = args.points
    if args.amplitude is not None:
        job["amplitude"] = args.amplitude
    if args.compare_full:
        job["compare_full"] = True
    if not job:
        raise ValidationError(
            "no sweep configured: pass --omega-start/--omega-stop or add "
            "a 'sweep' section to the spec"
        )
    return job


def _transient_job(args, spec):
    section = spec.get("transient")
    job = dict(section) if isinstance(section, dict) else {}
    if args.source is not None:
        job["source"] = _parse_source(args.source)
    if args.t_end is not None:
        job["t_end"] = args.t_end
    if args.dt is not None:
        job["dt"] = args.dt
    if args.compare_full:
        job["compare_full"] = True
    if not job:
        raise ValidationError(
            "no transient configured: pass --source/--t-end/--dt or add "
            "a 'transient' section to the spec"
        )
    return job


def _emit(args, report, csv_table=None):
    # json_safe + allow_nan=False: the stdout report is strict RFC-8259
    # JSON (non-finite floats become strings), as the module promises.
    report = json_safe(report)
    print(json.dumps(report, indent=2, default=repr, allow_nan=False))
    if getattr(args, "out", None):
        write_json_report(args.out, report)
    if getattr(args, "csv", None) and csv_table is not None:
        headers, rows = csv_table
        write_csv_report(args.csv, headers, rows)


def _run(args):
    if args.command == "serve":
        store = ModelStore(args.store) if args.store else None
        service = ReproService(store=store, hot_capacity=args.hot_cache)
        if args.preload:
            count = service.warm_start(limit=args.preload)
            print(
                f"preloaded {count} artifact(s) into the hot cache",
                file=sys.stderr, flush=True,
            )
        return run_daemon(
            service, host=args.host, port=args.port,
            queue_limit=args.queue_limit, timeout=args.timeout,
            stats_interval=args.stats_interval,
        )

    if args.command == "store":
        if args.store_command not in ("verify", "ls", "gc"):
            raise ValidationError(
                f"unknown store command {args.store_command!r}"
            )
        root = Path(args.root)
        if not (root / "objects").is_dir():
            raise ValidationError(
                f"{root} is not a ModelStore directory (no objects/)"
            )
        store = ModelStore(root)
        if args.store_command == "verify":
            report = store.verify(quarantine=not args.no_quarantine)
        elif args.store_command == "ls":
            report = store.ls()
        else:
            report = store.gc(max_bytes=args.max_bytes, ttl=args.ttl)
        report["command"] = f"store {args.store_command}"
        report["root"] = str(store.root)
        _emit(args, report)
        if args.store_command == "verify":
            return 1 if report["corrupt"] else 0
        return 0

    report, csv_table = _one_shot(args)
    _emit(args, report, csv_table=csv_table)
    return 0


def _one_shot(args):
    """Serve one verb request; returns ``(report, csv_table)``."""
    spec = _load_spec(args.spec)
    sparse = _sparse_flag(args)
    store = getattr(args, "store", None)
    store = ModelStore(store) if store else None
    # One-shot verbs run through the same ReproService the daemon
    # serves from: the CLI is a single-request serving process, so both
    # fronts execute — and report — the identical code path.
    service = ReproService(store=store, hot_capacity=1)

    def _store_stats(report):
        if store is not None:
            report["store"] = store.stats()
            report["store"]["root"] = str(store.root)

    if args.command == "info":
        outcome = service.handle(
            InfoRequest.from_payload({"spec": spec, "sparse": sparse})
        )
        return outcome.report(), None

    payload = {
        "spec": spec,
        "sparse": sparse,
        "checkpoint": args.checkpoint,
        "resume": args.resume,
    }

    if args.command == "reduce":
        payload["reduce"] = _reduce_job(args, spec, required=True)
        outcome = service.handle(ReduceRequest.from_payload(payload))
        report = outcome.report()
        _store_stats(report)
        if args.artifact:
            report["artifact_path"] = str(
                outcome.result.artifact.save(args.artifact)
            )
        return report, None

    if args.command == "sweep":
        payload["reduce"] = _reduce_job(args, spec, required=False)
        payload["sweep"] = _sweep_job(args, spec)
        outcome = service.handle(SweepRequest.from_payload(payload))
        report = outcome.report()
        _store_stats(report)
        sweep = outcome.result.sweep
        headers = ["omega", "hd2", "hd3"]
        columns = [sweep["omegas"], sweep["hd2"], sweep["hd3"]]
        if "hd2_full" in sweep:
            headers += ["hd2_full", "hd3_full"]
            columns += [sweep["hd2_full"], sweep["hd3_full"]]
        return report, (headers, [list(row) for row in zip(*columns)])

    if args.command == "mc":
        if args.checkpoint or args.resume:
            raise ValidationError(
                "checkpoint/resume do not apply to mc: the store dedup "
                "tier makes a rerun resume naturally"
            )
        section = spec.get("mc")
        mc_job = dict(section) if isinstance(section, dict) else {}
        if args.corners is not None:
            mc_job["grid_points"] = args.corners
        if args.draws is not None:
            mc_job["draws"] = args.draws
        if args.seed is not None:
            mc_job["seed"] = args.seed
        if args.interp_tol is not None:
            mc_job["interp_tol"] = args.interp_tol
        if args.no_warm:
            mc_job["warm"] = False
        if args.no_interp:
            mc_job["interp"] = False
        outcome = service.handle(McRequest.from_payload({
            "spec": spec,
            "sparse": sparse,
            "reduce": _reduce_job(args, spec, required=False),
            "sweep": _sweep_job(args, spec),
            "mc": mc_job or None,
        }))
        dist = outcome.result.distributions
        corners = dist["corners"]
        headers = ["omega", "hd2_p50", "hd2_p99", "hd3_p50", "hd3_p99"]
        columns = [
            dist["omegas"], corners["hd2_p50"], corners["hd2_p99"],
            corners["hd3_p50"], corners["hd3_p99"],
        ]
        return outcome.report(), (
            headers, [list(row) for row in zip(*columns)]
        )

    if args.command == "simulate":
        payload["reduce"] = _reduce_job(args, spec, required=False)
        payload["transient"] = _transient_job(args, spec)
        outcome = service.handle(SimulateRequest.from_payload(payload))
        transient = outcome.result.transient
        times = transient.pop("times")
        outputs = transient.pop("output")
        full_outputs = transient.pop("full_output", None)
        report = outcome.report()
        _store_stats(report)
        headers = ["t", "output"]
        columns = [times, outputs]
        if full_outputs is not None:
            headers.append("full_output")
            columns.append(full_outputs)
        return report, (headers, [list(row) for row in zip(*columns)])

    raise ValidationError(f"unknown command {args.command!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
