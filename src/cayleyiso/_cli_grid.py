"""The CLI's commands on the perforated family A(i, k), which build no host:
counterexample stats, find and torus, and sweep ratio."""

from __future__ import annotations

from . import counterexample


def _cmd_counterexample_stats(args, budget):
    params = counterexample.GridParams(args.i, args.k)
    st = counterexample.stats(params, budget=budget)
    emitted = counterexample.build(params, budget=budget) if args.emit_set else None
    return ("json", st.to_dict()), st.violations(), emitted


def _cmd_counterexample_find(args, budget):
    target = counterexample._parse_fraction(args.c, "--c")
    params, st = counterexample.find_params(target, budget=budget)
    emitted = counterexample.build(params, budget=budget) if args.emit_set else None
    return ("json", {"target": target, **st.to_dict()}), st.violations(), emitted


def _cmd_counterexample_torus(args, budget):
    params = counterexample.GridParams(args.i, args.k)
    embedding = counterexample.embed_torus(params, budget=budget)
    emitted = embedding.vertex_set if args.emit_set else None
    return ("json", embedding.report.to_dict()), embedding.report.violations(), emitted


def _cmd_sweep_ratio(args, budget):
    if args.diag is not None:
        try:
            diag = sorted({int(x) for x in args.diag.split(",") if x.strip()})
        except ValueError:
            raise ValueError(f"--diag expects comma-separated integers, got {args.diag!r}")
        pairs = [(j, j) for j in diag]
    elif args.imax is not None and args.kmax is not None:
        # stats would refuse the largest member's patch only after every
        # smaller member ran, so refuse the range before the first
        if args.imax >= 2 and args.kmax >= 2:
            counterexample._patch(counterexample.GridParams(args.imax, args.kmax), budget)
        pairs = ((i, k) for i in range(2, args.imax + 1) for k in range(2, args.kmax + 1))
    else:
        raise ValueError("provide --imax and --kmax, or --diag LIST")
    rows, violations = [], []
    for i, k in pairs:
        st = counterexample.stats(counterexample.GridParams(i, k), budget=budget)
        violations += [f"{name} at i={i}, k={k}" for name in st.violations()]
        rows.append([i, k, st.sizeA, st.boundarySize, st.depthOracle, st.ratio])
    header = ["i", "k", "sizeA", "boundarySize", "depthOracle", "ratio"]
    if args.format == "json":
        return ("json", {"rows": [dict(zip(header, row)) for row in rows]}), violations, None
    return ("csv", header, rows), violations, None
