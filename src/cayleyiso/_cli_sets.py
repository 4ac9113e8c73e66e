"""The CLI's commands on a vertex set, read from --set or grown by --random:
boundary, depth, varopoulos, separation and ringlike cover."""

from __future__ import annotations

from . import groups, isoperimetry


def _resolve_set(args, budget: int) -> isoperimetry.VertexSet:
    """Load --set PATH, or grow --random SIZE on --group with --seed."""
    if args.set is not None:
        A = isoperimetry.load_set(args.set)
        if args.group is not None and groups.parse_group(args.group).family != A.host.family:
            raise ValueError(f"--group {args.group!r} does not match set file group "
                             f"{A.host.family!r}")
        return A
    if args.random is not None:
        if args.group is None:
            raise ValueError("--random requires --group")
        g = groups.parse_group(args.group)
        return isoperimetry.random_connected_set(g, args.random, seed=args.seed, budget=budget)
    raise ValueError("provide a set via --set PATH or --random SIZE")


def _cmd_boundary(args, budget):
    A = _resolve_set(args, budget)
    B = isoperimetry.boundary(A)
    payload = {"group": A.host.family, "sizeA": len(A), "boundarySize": len(B)}
    return ("json", payload), [], B if args.emit_set else None


def _cmd_depth(args, budget):
    A = _resolve_set(args, budget)
    payload = {"group": A.host.family, "sizeA": len(A), "depth": isoperimetry.depth(A)}
    return ("json", payload), [], None


def _cmd_varopoulos(args, budget):
    A = _resolve_set(args, budget)
    report = isoperimetry.varopoulos_check(A, budget=budget)
    payload = {"group": A.host.family, "sizeA": len(A), **report.to_dict()}
    return ("json", payload), report.violations(), None


def _cmd_separation(args, budget):
    A = _resolve_set(args, budget)
    report = isoperimetry.classify_separation(A, budget=budget)
    return ("json", report.to_dict()), report.violations(), None


def _cmd_ringlike_cover(args, budget):
    from . import ringlike  # the one command of this module that needs it

    A = _resolve_set(args, budget)
    system = ringlike.cyclic_system(A.host, window=args.window, budget=budget)
    report = ringlike.interval_cover(system, A)
    return ("json", report.to_dict()), report.violations(), None
