"""The CLI's commands on a host alone: growth, ball and ringlike check."""

from __future__ import annotations

from . import groups


def _cmd_growth(args, budget):
    g = groups.parse_group(args.group)
    report = groups.classify_growth(g, args.max_radius, budget=budget)
    if args.format == "csv":
        rows = list(enumerate(report.ball_sizes))
        return ("csv", ["r", "ballSize"], rows), [], None
    return ("json", report.to_dict()), [], None


def _cmd_ball(args, budget):
    g = groups.parse_group(args.group)
    keys = groups._ball_keys(g, g.identity(), args.radius, budget)
    payload = {"group": g.family, "radius": args.radius, "size": len(keys)}
    if not args.emit_set:
        return ("json", payload), [], None
    from .isoperimetry import VertexSet  # only a set file needs it

    return ("json", payload), [], VertexSet._trusted(g, keys)


def _cmd_ringlike_check(args, budget):
    from . import ringlike  # which loads isoperimetry: growth and ball need neither

    host = groups.parse_group(args.group)
    system = ringlike.cyclic_system(host, window=args.window, budget=budget)
    return ("json", system.to_dict()), system.violations(), None
