"""Command-line interface.

Subcommands: ``simulate`` (single-process run), ``serve`` / ``camera``
(distributed server and camera nodes), ``report`` (inspect and compare run
reports) and ``init-config`` (write a default configuration to edit).

Exit codes: 0 success, 1 configuration error, 2 network failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import MODES, ConfigError, RunConfig, load_config, save_config
from .distributed import ConnectionLost, run_camera_node, run_server
from .report import compare_table, fmt, load_report, write_report
from .simulation import run_sim

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NETWORK = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvsparse",
        description="Cooperative multi-camera tracking simulator with online block selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the single-process pipeline")
    sim.add_argument("--config", help="run config (YAML); defaults when omitted")
    sim.add_argument("--mode", choices=MODES, help="override the configured mode")
    sim.add_argument("--frames", type=int, help="override the frame count")
    sim.add_argument("--seed", type=int, help="override the run seed")
    sim.add_argument("--out", help="write the run report here (JSON)")

    srv = sub.add_parser("serve", help="run the aggregation server")
    srv.add_argument("--config", required=True)
    srv.add_argument("--port", type=int, help="override the configured port")
    srv.add_argument("--out", help="write the run report here (JSON)")

    cam = sub.add_parser("camera", help="run one camera node")
    cam.add_argument("--config", required=True)
    cam.add_argument("--camera-id", type=int, required=True)
    cam.add_argument("--server", help="host:port of the server (default from config)")

    rep = sub.add_parser("report", help="inspect or compare run reports")
    rep.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two report files")
    rep.add_argument("path", nargs="?", help="single report to summarize")

    ini = sub.add_parser("init-config", help="write the default configuration")
    ini.add_argument("--out", required=True)
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    for key in ("mode", "frames", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return cfg.with_overrides(**overrides) if overrides else cfg


def _summarize(report: dict) -> str:
    s = report.get("scores", {})
    r = report.get("resources", {})
    lines = [
        f"mode={report.get('mode')} seed={report.get('seed')} "
        f"frames={report.get('completed_frames')}/{report.get('frames')} "
        f"cameras={report.get('n_cameras')} K={report.get('k_views')}",
        f"  MODA={fmt(s.get('moda'))}  MODP={fmt(s.get('modp'))}  "
        f"precision={fmt(s.get('precision'))}  recall={fmt(s.get('recall'))}",
        f"  MOTA={fmt(s.get('mota'))}  IDF1={fmt(s.get('idf1'))}  "
        f"IDSW={s.get('id_switches')}",
        f"  blocks/cam-frame={fmt(s.get('blocks_per_camera_frame'))}  "
        f"MB/frame={fmt(r.get('mb_per_frame'))}  "
        f"network ms/frame={fmt(r.get('frame_network_ms'))}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _load(args)
            report = run_sim(cfg)
            print(_summarize(report))
            if args.out:
                write_report(report, args.out)
                print(f"report written to {args.out}")
            return EXIT_OK

        if args.command == "serve":
            cfg = _load(args)
            try:
                report = run_server(cfg, port=args.port)
            except ConnectionLost as exc:
                if exc.partial_report is not None and args.out:
                    write_report(exc.partial_report, args.out)
                    print(f"partial report written to {args.out}", file=sys.stderr)
                print(f"network failure: {exc}", file=sys.stderr)
                return EXIT_NETWORK
            print(_summarize(report))
            if args.out:
                write_report(report, args.out)
                print(f"report written to {args.out}")
            return EXIT_OK

        if args.command == "camera":
            cfg = _load(args)
            server = None
            if args.server:
                host, _, port = args.server.rpartition(":")
                if not host or not port.isdigit():
                    raise ConfigError(f"--server must be host:port, got {args.server!r}")
                server = (host, int(port))
            try:
                run_camera_node(cfg, args.camera_id, server)
            except ConnectionLost as exc:
                print(f"network failure: {exc}", file=sys.stderr)
                return EXIT_NETWORK
            return EXIT_OK

        if args.command == "report":
            if args.compare:
                a, b = (load_report(p) for p in args.compare)
                print(compare_table(a, b))
            elif args.path:
                print(_summarize(load_report(args.path)))
            else:
                print("report: give a path or --compare A B", file=sys.stderr)
                return EXIT_CONFIG
            return EXIT_OK

        if args.command == "init-config":
            save_config(RunConfig(), args.out)
            print(f"default config written to {args.out}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
