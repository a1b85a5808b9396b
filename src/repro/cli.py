"""Command-line interface: regenerate the paper's tables from a terminal.

::

    python -m repro table1 mst          # one Table 1 row
    python -m repro table2              # scan vs memory reference
    python -m repro table4              # split radix vs bitonic
    python -m repro table5              # processor-step complexity
    python -m repro figure9             # the line-drawing figure (ASCII)
    python -m repro demo                # a quick primitive tour
    python -m repro backends            # execution backends + self-check
    python -m repro cluster             # sharded multi-process scan demo
    python -m repro cluster --chaos     # ...with scripted worker failures
    python -m repro profile radix_sort  # spans/steps/bytes profile
    python -m repro profile mst --backend blocked --export chrome
    python -m repro verify --seed 0 --cases 500   # differential fuzz
    python -m repro verify --backends numpy,distributed:2:1 --chaos-seed 7
    python -m repro serve               # scan-as-a-service (docs/serving.md)
    python -m repro serve --selfcheck   # serve, verify a workload, exit

The heavyweight regeneration (wall-clock timing included) lives in
``pytest benchmarks/ --benchmark-only``; this CLI prints the step/cycle
tables directly for interactive use.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np


def _table1(args) -> None:
    from . import Machine
    from .algorithms import (
        connected_components,
        maximal_independent_set,
        minimum_spanning_tree,
        quicksort,
        split_radix_sort,
    )
    from .graph import random_connected_graph

    algos = {
        "mst": lambda m, n, e, w: minimum_spanning_tree(m, n, e, w),
        "cc": lambda m, n, e, w: connected_components(m, n, e),
        "mis": lambda m, n, e, w: maximal_independent_set(m, n, e),
    }
    sort_algos = {
        "radix": split_radix_sort,
        "quicksort": quicksort,
    }
    name = args.algorithm
    sizes = [64, 256, 1024] if name in algos else [256, 1024, 4096]
    print(f"Table 1 ({name}): program steps")
    print(f"{'model':<8}" + "".join(f"{f'n={n}':>10}" for n in sizes))
    for model in ("erew", "crcw", "scan"):
        row = []
        for n in sizes:
            m = Machine(model, seed=0)
            if name in algos:
                rng = np.random.default_rng(0)
                edges, weights = random_connected_graph(rng, n, 2 * n)
                algos[name](m, n, edges, weights)
            else:
                rng = np.random.default_rng(0)
                sort_algos[name](m.vector(rng.integers(0, n, n)))
            row.append(m.steps)
        print(f"{model:<8}" + "".join(f"{s:>10}" for s in row))


def _table2(args) -> None:
    from .hardware import example_system, scan_vs_memory

    t = scan_vs_memory(args.n, 32)
    print(f"Table 2 at n={args.n}, 32-bit operands")
    print(f"{'':<26}{'memory ref':>12}{'scan':>10}")
    print(f"{'bit cycles':<26}"
          f"{int(t['memory_reference']['bit_cycles_wormhole']):>12}"
          f"{int(t['scan_operation']['bit_cycles']):>10}")
    print(f"{'circuit size':<26}{int(t['memory_reference']['circuit_size']):>12}"
          f"{int(t['scan_operation']['circuit_size']):>10}")
    print(f"{'VLSI area':<26}{int(t['memory_reference']['vlsi_area']):>12}"
          f"{int(t['scan_operation']['vlsi_area']):>10}")
    es = example_system()
    print(f"\nSection 3.3 system: {es.per_board_chip_state_machines} SMs + "
          f"{es.per_board_chip_shift_registers} FIFOs per chip; "
          f"32-bit scan = {es.scan_time_at_100ns * 1e6:.1f} us @ 100 ns")


def _table4(args) -> None:
    from .hardware import sort_comparison

    print(f"Table 4: split radix vs bitonic, n={args.n}")
    print(f"{'d':>4}{'split radix':>14}{'bitonic':>10}{'winner':>14}")
    for d in (2, 4, 8, 16, 24, 32):
        t = sort_comparison(args.n, d)
        s = t["split_radix"]["simulated_cycles"]
        b = t["bitonic"]["simulated_cycles"]
        print(f"{d:>4}{s:>14}{b:>10}{'split radix' if s < b else 'bitonic':>14}")


def _table5(args) -> None:
    from . import Machine
    from .algorithms import halving_merge

    n = args.n
    rng = np.random.default_rng(0)
    a = np.sort(rng.integers(0, 10**6, n))
    b = np.sort(rng.integers(0, 10**6, n))
    lg = max(int(n).bit_length() - 1, 1)
    print(f"Table 5 (halving merge, two {n}-element vectors)")
    print(f"{'processors':>12}{'steps':>8}{'work':>14}")
    for p in (2 * n, (2 * n) // lg):
        m = Machine("scan", num_processors=p)
        halving_merge(m.vector(a), m.vector(b))
        print(f"{p:>12}{m.steps:>8}{p * m.steps:>14}")


def _figure9(args) -> None:
    from . import Machine
    from .algorithms import draw_lines, render

    m = Machine("scan", allow_concurrent_write=True)
    d = draw_lines(m, [[11, 2, 23, 14], [2, 13, 13, 8], [16, 4, 31, 4]])
    grid = render(d, 32, 16)
    print(f"Figure 9 — pixels per line: {d.counts.to_list()}, "
          f"{m.steps} program steps")
    for row in grid[::-1]:
        print("".join("#" if c else "." for c in row))


def _demo(args) -> None:
    from . import Machine
    from .core import scans

    m = Machine("scan")
    v = m.vector([2, 1, 2, 3, 5, 8, 13, 21])
    print("A         =", v.to_list())
    print("+-scan(A) =", scans.plus_scan(v).to_list())
    print("steps     =", m.steps)
    e = Machine("erew")
    scans.plus_scan(e.vector(range(65536)))
    print(f"same scan, n=65536, EREW: {e.steps} steps (2 lg n)")


def _faults(args) -> None:
    from . import Machine
    from .core import scans
    from .faults import (
        CIRCUIT_SCHEMES,
        FaultInjector,
        FaultPlan,
        PrimitiveFault,
        run_circuit_campaign,
        run_machine_campaign,
    )
    from .faults.campaign import CampaignResult

    if args.mode == "campaign":
        print(f"Single-bit-flip campaign: {args.trials} trials per scheme, "
              f"n={args.n} leaves, width={args.width}, seed={args.seed}")
        print(CampaignResult.header())
        for scheme in CIRCUIT_SCHEMES:
            r = run_circuit_campaign(scheme, n_leaves=args.n,
                                     width=args.width, trials=args.trials,
                                     base_seed=args.seed)
            print(r.row())
        return

    # demo: one corrupted scan detected, retried, corrected — then a
    # machine whose every scan is corrupted degrading to the EREW fallback
    print("-- checked machine: one scan-output bit flip --")
    plan = FaultPlan(primitive_faults=(
        PrimitiveFault(op_index=0, kind="scan", element=3, bit=7),),
        seed=args.seed)
    m = Machine("scan", reliability=True, fault_injector=FaultInjector(plan))
    v = m.vector([2, 1, 2, 3, 5, 8, 13, 21])
    out = scans.plus_scan(v)
    print("A          =", v.to_list())
    print("+-scan(A)  =", out.to_list())
    print("ledger     =", m.fault_counters.summary())
    print("steps      =", m.steps, "(verification and the retry are charged)")

    print("\n-- persistent faults: retries exhausted, EREW degradation --")
    plan = FaultPlan(probability=1.0, probability_kinds=("scan",),
                     seed=args.seed)
    m = Machine("scan", reliability=True, fault_injector=FaultInjector(plan))
    v = m.vector(list(range(16)))
    out = scans.plus_scan(v)
    again = scans.plus_scan(v)
    snap = m.snapshot()
    print("+-scan(A)  =", out.to_list())
    print("2nd scan   =", again.to_list()[:8], "...")
    print("ledger     =", m.fault_counters.summary())
    print(f"degraded   = {snap.degraded} "
          f"(scan unit failed: {m.scan_unit_failed}); "
          f"scan_degraded steps = {snap.by_kind.get('scan_degraded', 0)}")


def _backends(args) -> None:
    from . import Machine
    from .backends import available_backends, get_backend
    from .core import scans
    from .core.simulate import sim_verify_max_scan, sim_verify_plus_scan

    data = [2, 1, 2, 3, 5, 8, 13, 21]
    print("execution backends (select with Machine(backend=...) or "
          "REPRO_BACKEND):")
    for name in available_backends():
        m = Machine("scan", backend=name)
        v = m.vector(data)
        plus = scans.plus_scan(v)
        mx = scans.max_scan(v, identity=0)
        # cross-verify against the independent Section 3.4 constructions
        ok = (sim_verify_plus_scan(v, plus)
              and sim_verify_max_scan(v, mx, identity=0))
        marker = " (default)" if name == "numpy" else ""
        print(f"  {name:<10} {get_backend(name).__class__.__name__:<18} "
              f"self-check {'ok' if ok else 'FAILED'}  "
              f"+-scan{data} = {plus.to_list()}{marker}")
        if not ok:
            raise SystemExit(f"backend {name!r} failed its self-check")
    # the blocked backend's chunk size is selectable: run one scan whose
    # vector spans many chunks so the carry path is exercised
    m = Machine("scan", backend="blocked:4")
    v = m.vector(data)
    out = scans.plus_scan(v)
    ok = sim_verify_plus_scan(v, out)
    print(f"  blocked:4  chunked carry demo   self-check "
          f"{'ok' if ok else 'FAILED'}  ({len(data)} elements in "
          f"{-(-len(data) // 4)} chunks)")
    if not ok:
        raise SystemExit("blocked:4 failed its self-check")
    # the distributed backend takes a worker count and a distribution
    # threshold: "distributed:2:1" = 2 worker processes, shard even tiny
    # vectors (the default threshold keeps short vectors in-process)
    from .backends.distributed import (DEFAULT_MIN_DISTRIBUTE,
                                       DEFAULT_WORKERS)

    m = Machine("scan", backend="distributed:2:1")
    v = m.vector(data)
    out = scans.plus_scan(v)
    ok = sim_verify_plus_scan(v, out)
    shards = len(m.backend.pool.live_workers())
    print(f"  distributed:2:1  sharded demo   self-check "
          f"{'ok' if ok else 'FAILED'}  ({len(data)} elements across "
          f"{shards} worker processes; defaults: {DEFAULT_WORKERS} workers, "
          f"distribute at n >= {DEFAULT_MIN_DISTRIBUTE})")
    if not ok:
        raise SystemExit("distributed:2:1 failed its self-check")


def _cluster(args) -> int:
    from . import Machine
    from .backends.distributed import DistributedBackend
    from .cluster import ChaosAction, ChaosPlan, RetryPolicy
    from .core import scans
    from .observe.metrics import registry

    chaos = None
    if args.chaos:
        # a scripted failure per recovery path: worker 0 dies mid-scan,
        # worker 1 returns a corrupted shard, one worker hangs past its
        # deadline — all on the first three distributed ops
        chaos = ChaosPlan(actions=(
            ChaosAction(op_id=0, worker=0, kind="kill"),
            ChaosAction(op_id=1, worker=1 % args.workers, kind="corrupt"),
            ChaosAction(op_id=2, worker=0, kind="hang"),
        ), seed=args.seed)
    backend = DistributedBackend(
        workers=args.workers, min_distribute=1,
        policy=RetryPolicy(op_deadline=args.deadline, backoff_base=0.01),
        chaos=chaos)
    try:
        m = Machine("scan", backend=backend)
        rng = np.random.default_rng(args.seed)
        data = rng.integers(0, 100, size=args.n).astype(np.int64)
        v = m.vector(data)
        print(f"cluster: {args.workers} worker processes, sharded scans over "
              f"n={args.n}" + (" (chaos plan armed)" if chaos else ""))

        plus = scans.plus_scan(v).data
        mx = scans.max_scan(v, identity=0).data
        again = scans.plus_scan(v).data  # op 2: the chaos hang's target
        total = int(plus[-1]) + int(data[-1])

        baseline = Machine("scan", backend="numpy")
        bv = baseline.vector(data)
        ok = (np.array_equal(plus, scans.plus_scan(bv).data)
              and np.array_equal(mx, scans.max_scan(bv, identity=0).data)
              and np.array_equal(again, scans.plus_scan(bv).data))
        print(f"+-scan / max-scan / +-scan vs in-process numpy: "
              f"{'bit-identical' if ok else 'MISMATCH'}; sum={total}")
        print(f"step charges: distributed={m.steps} numpy={baseline.steps} "
              f"({'identical' if m.steps == baseline.steps else 'DIVERGED'})")

        ledger = backend.ledger.snapshot()
        print("\n-- cluster ledger (also the registry's cluster.* counters) --")
        for field, value in ledger.items():
            print(f"  {field:<20} {value}")
        for name in ("carry_rounds", "shard_elements"):
            hist = registry.histogram(f"cluster.{name}")
            print(f"  {name:<20} count={hist.count} mean={hist.mean:.1f} "
                  f"max={hist.max or 0}")
        if not ok or m.steps != baseline.steps:
            return 1
        if not ledger["reconciles"]:
            print("ledger does NOT reconcile")
            return 1
        return 0
    finally:
        backend.shutdown()


def _verify(args) -> int:
    import json

    from .verify import (DEFAULT_ENGINES, ConformanceReport, generate_cases,
                         load_corpus, run_cases, shrink)

    engines = (tuple(e for e in args.backends.split(",") if e)
               if args.backends else DEFAULT_ENGINES)

    if args.chaos_seed is not None:
        # arm every shared worker pool (the distributed engines' pools)
        # with seeded random kills: conformance under chaos
        from .cluster import ChaosPlan, set_shared_chaos

        set_shared_chaos(ChaosPlan(kill_probability=args.chaos_kill_prob,
                                   seed=args.chaos_seed))
        print(f"chaos armed on distributed pools: seed={args.chaos_seed}, "
              f"kill probability {args.chaos_kill_prob} per shard dispatch")
    ops = [o for o in args.ops.split(",") if o] if args.ops else None
    dtypes = [d for d in args.dtypes.split(",") if d] if args.dtypes else None

    cases = []
    if not args.no_corpus:
        replay = load_corpus(args.corpus_dir)
        if replay:
            print(f"replaying {len(replay)} committed corpus case(s)")
        cases.extend(replay)
    cases.extend(generate_cases(seed=args.seed, count=args.cases,
                                ops=ops, dtypes=dtypes))

    report = ConformanceReport(engines=engines)
    report.record_all(run_cases(cases, engines))

    if args.export == "json":
        text = json.dumps(report.to_json_dict(), indent=2)
    else:
        text = report.render_table()
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text + "\n")
        print(f"verify(seed={args.seed}, cases={args.cases}): "
              f"{report.total_cases} run, {report.total_failures} divergent; "
              f"{args.export} written to {args.output}")
    else:
        print(text)

    if report.ok:
        return 0

    # shrink each divergent case to its minimal witness before reporting
    divergent = []
    seen = set()
    for d in report.divergences:
        key = d.case.to_json()
        if key not in seen:
            seen.add(key)
            divergent.append(d.case)
    print(f"\nshrinking {len(divergent)} divergent case(s):")
    shrunken = []
    for case in divergent:
        small = shrink(case, engines)
        shrunken.append(small)
        print(f"  {small.describe()}")
    if args.artifact:
        import pathlib

        payload = {
            "seed": args.seed,
            "engines": list(engines),
            "report": report.to_json_dict(),
            "counterexamples": [c.to_json_dict() for c in shrunken],
        }
        pathlib.Path(args.artifact).write_text(
            json.dumps(payload, indent=2) + "\n")
        print(f"counterexample artifact written to {args.artifact}")
    return 1


def _profile(args) -> None:
    import json

    from .observe import to_chrome_trace, to_json
    from .observe.profiles import run_profile

    p = run_profile(args.algorithm, backend=args.backend, model=args.model,
                    n=args.n, seed=args.seed)
    if args.export == "table":
        text = p.render_table()
    elif args.export == "json":
        text = to_json(p)
    else:
        text = json.dumps(to_chrome_trace(p), indent=2)
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text + "\n")
        print(f"profile({p.algorithm}, backend={p.backend}): {p.steps} steps; "
              f"{args.export} written to {args.output}")
    else:
        print(text)


def _models(args) -> None:
    from .machine.comparison import render_models_table

    names = args.algorithms.split(",") if args.algorithms else None
    print(render_models_table(names=names, n=args.n, seed=args.seed,
                              num_processors=args.processors))


def _serve(args) -> int:
    import asyncio
    import json

    from .serve import ScanServer, ServeClient, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, backend=args.backend,
        batch_window=args.window, max_batch=args.max_batch,
        max_pending=args.max_pending, cache_entries=args.cache,
        quota_budget=args.budget, quota_refill_per_s=args.refill)

    async def _selfcheck() -> int:
        """Start the server, push a mixed concurrent workload through it,
        check every answer against a serial machine, print the SLO
        snapshot.  Exit 0 iff everything came back bit-identical.  Float
        specials (NaN, +-inf, -0.0) and bools ride along, so attachments
        of 8- and 1-byte items cross the socket both ways; ``seg_copy``
        over one-element segments echoes its input, so those bits are
        checked on the way in as well as out."""
        from .core import scans, segmented
        from .machine.model import Machine

        server = ScanServer(config)
        await server.start()
        rng = np.random.default_rng(7)
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5,
                             -2.25, np.nan], dtype=np.float64)
        bits = rng.random(40) < 0.5
        cases = [("plus_scan", rng.integers(-99, 99, size=257,
                                            dtype=np.int64), None)
                 for _ in range(48)]
        cases += [("seg_max_scan", rng.integers(0, 9, size=30,
                                                dtype=np.int64), [10, 5, 15]),
                  ("max_scan", specials, None),
                  ("seg_copy", specials, [1] * len(specials)),
                  ("or_scan", bits, None),
                  ("seg_copy", bits, [1] * len(bits))]
        clients = [await ServeClient.connect(args.host, server.port)
                   for _ in range(8)]
        outs = await asyncio.gather(*[
            clients[i % len(clients)].scan(op, v, seg_lengths=lengths)
            for i, (op, v, lengths) in enumerate(cases)])

        failures = 0
        m = Machine("scan")
        for (op, v, lengths), out in zip(cases, outs):
            if lengths is None:
                want = getattr(scans, op)(m.vector(v)).data
            else:
                flags = np.zeros(len(v), dtype=bool)
                flags[np.cumsum([0] + lengths[:-1])] = True
                want = getattr(segmented, op)(m.vector(v),
                                              m.flags(flags)).data
                if op == "seg_copy" and v.tobytes() != want.tobytes():
                    failures += 1  # the echo must be the input, bit for bit
            if out.dtype != want.dtype or out.tobytes() != want.tobytes():
                failures += 1

        snap = server.stats.snapshot()
        for c in clients:
            await c.close()
        await server.shutdown()
        print(json.dumps(snap, indent=2))
        if failures:
            print(f"selfcheck FAILED: {failures} responses diverged "
                  f"from the serial machine")
            return 1
        print(f"selfcheck ok: {snap['ok']} responses bit-identical, "
              f"mean batch occupancy {snap['mean_batch_occupancy']}")
        return 0

    async def _serve_until_interrupt() -> int:
        server = ScanServer(config)
        await server.start()
        print(f"serving on {args.host}:{server.port} "
              f"(backend={args.backend or 'REPRO_BACKEND/default'}, "
              f"window={args.window * 1e3:.1f}ms, "
              f"max_batch={args.max_batch})")
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()
            print(json.dumps(server.stats.snapshot(), indent=2))
        return 0

    try:
        return asyncio.run(_selfcheck() if args.selfcheck
                           else _serve_until_interrupt())
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures from 'Scans as Primitive "
                    "Parallel Operations' (Blelloch, 1987/89)")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="step-complexity rows")
    p1.add_argument("algorithm",
                    choices=["mst", "cc", "mis", "radix", "quicksort"])
    p1.set_defaults(func=_table1)

    p2 = sub.add_parser("table2", help="scan vs memory reference")
    p2.add_argument("--n", type=int, default=65536)
    p2.set_defaults(func=_table2)

    p4 = sub.add_parser("table4", help="split radix vs bitonic")
    p4.add_argument("--n", type=int, default=65536)
    p4.set_defaults(func=_table4)

    p5 = sub.add_parser("table5", help="processor-step complexity")
    p5.add_argument("--n", type=int, default=8192)
    p5.set_defaults(func=_table5)

    p9 = sub.add_parser("figure9", help="the line-drawing figure")
    p9.set_defaults(func=_figure9)

    pd = sub.add_parser("demo", help="a 10-second primitive tour")
    pd.set_defaults(func=_demo)

    pb = sub.add_parser("backends",
                        help="list execution backends and self-check each")
    pb.set_defaults(func=_backends)

    pc = sub.add_parser(
        "cluster",
        help="sharded multi-process scan demo: pool, ledger, metrics")
    pc.add_argument("--workers", type=int, default=4,
                    help="worker processes in the pool")
    pc.add_argument("--n", type=int, default=1 << 20,
                    help="vector length for the demo scans")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--deadline", type=float, default=2.0,
                    help="per-shard op deadline in seconds (a scripted "
                         "hang stalls this long before recovery kicks in)")
    pc.add_argument("--chaos", action="store_true",
                    help="script a kill, a corruption and a hang into the "
                         "demo to show the recovery ladder")
    pc.set_defaults(func=_cluster)

    pp = sub.add_parser(
        "profile",
        help="profile a Table 1 algorithm: spans, steps, bytes, metrics")
    from .observe.profiles import available_algorithms

    pp.add_argument("algorithm", choices=available_algorithms())
    pp.add_argument("--backend", default=None,
                    help="execution backend (numpy, blocked, blocked:<chunk>, "
                         "native, native:<threads>:<block>, reference); "
                         "default honors REPRO_BACKEND")
    pp.add_argument("--model", default="scan",
                    choices=["erew", "crew", "crcw", "scan",
                             "binary-forking"])
    pp.add_argument("--n", type=int, default=None,
                    help="problem size (default: the workload's pinned size)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--export", default="table",
                    choices=["table", "json", "chrome"],
                    help="output format; 'chrome' is the Trace Event JSON "
                         "for chrome://tracing")
    pp.add_argument("-o", "--output", default=None,
                    help="write the export to a file instead of stdout")
    pp.set_defaults(func=_profile)

    pm = sub.add_parser(
        "models",
        help="Table 1 re-run: the same algorithms costed on all five "
             "machine models, binary-forking included")
    pm.add_argument("--n", type=int, default=None,
                    help="problem size for every row (default: each "
                         "algorithm's pinned size)")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--processors", type=int, default=None,
                    help="simulated processor count (default: n)")
    pm.add_argument("--algorithms", default=None,
                    help="comma-separated subset (default: all)")
    pm.set_defaults(func=_models)

    pv = sub.add_parser(
        "verify",
        help="differential conformance fuzz: every op x dtype x backend "
             "against the serial oracle")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=int, default=500,
                    help="generated cases (on top of the committed corpus)")
    pv.add_argument("--ops", default=None,
                    help="comma-separated op names (default: all)")
    pv.add_argument("--dtypes", default=None,
                    help="comma-separated dtypes (default: each op's grid)")
    pv.add_argument("--backends", default=None,
                    help="comma-separated engines "
                         f"(default: {','.join(('numpy', 'blocked', 'blocked:7', 'blocked:1', 'reference', 'native', 'native:0:7'))})")
    pv.add_argument("--no-corpus", action="store_true",
                    help="skip replaying tests/corpus/verify/")
    pv.add_argument("--corpus-dir", default=None,
                    help="replay corpus from this directory instead")
    pv.add_argument("--export", default="table", choices=["table", "json"])
    pv.add_argument("-o", "--output", default=None,
                    help="write the export to a file instead of stdout")
    pv.add_argument("--artifact", default=None,
                    help="on divergence, write shrunken counterexamples "
                         "to this JSON file (CI uploads it)")
    pv.add_argument("--chaos-seed", type=int, default=None,
                    help="arm the distributed backend's shared pools with "
                         "seeded random worker kills during the run")
    pv.add_argument("--chaos-kill-prob", type=float, default=0.02,
                    help="per-shard-dispatch kill probability under "
                         "--chaos-seed")
    pv.set_defaults(func=_verify)

    ps = sub.add_parser(
        "serve",
        help="scan-as-a-service: asyncio server with segmented-scan "
             "request batching (see docs/serving.md)")
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=8787,
                    help="TCP port (0 binds an ephemeral port)")
    ps.add_argument("--backend", default=None,
                    help="execution backend spec (numpy, blocked, native, "
                         "distributed:<workers>:<chunks>, ...); default "
                         "honors REPRO_BACKEND")
    ps.add_argument("--window", type=float, default=0.002,
                    help="longest a batchable request waits for company, "
                         "in seconds")
    ps.add_argument("--max-batch", type=int, default=64,
                    help="most requests coalesced into one mega-op")
    ps.add_argument("--max-pending", type=int, default=1024,
                    help="admission bound before 'overloaded' errors")
    ps.add_argument("--cache", type=int, default=1024,
                    help="result-cache entries (0 disables)")
    ps.add_argument("--budget", type=int, default=None,
                    help="per-tenant step budget (default: unmetered)")
    ps.add_argument("--refill", type=float, default=0.0,
                    help="steps per second the budget refills")
    ps.add_argument("--selfcheck", action="store_true",
                    help="start, drive a concurrent workload, verify "
                         "against the serial machine, print SLOs, exit")
    ps.set_defaults(func=_serve)

    pf = sub.add_parser("faults",
                        help="fault injection: detect / mask / degrade")
    pf.add_argument("mode", nargs="?", choices=["demo", "campaign"],
                    default="demo")
    pf.add_argument("--trials", type=int, default=200)
    pf.add_argument("--n", type=int, default=8,
                    help="circuit leaves (power of two)")
    pf.add_argument("--width", type=int, default=8)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(func=_faults)

    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except BrokenPipeError:  # e.g. `python -m repro table4 | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    return int(rc or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
