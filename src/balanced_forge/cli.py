"""Command-line front end.

Exit codes: 0 success (or affirmative verdict), 1 internal check failure,
2 usage or input error, 3 semantic negative (empty core, collection that
is not minimal balanced).
"""
import argparse
import inspect
import json
import sys

from . import __version__
from .core import format_coalition, full_mask, json_number, parse_coalition, split_line
from .counting import count_total, count_spanning, count_cumulative, count_graphs, egf_table
from .hypergraph import parse_hypergraph, hypergraph_from_json
from .balanced import _cached_weights, _checked_masks, parse_collection
from .enumeration import (
    MbcCatalog,
    enumerate_mbc,
    enumerate_mbc_oracle,
    enumerate_uniform,
    enumerate_minimally_uniform,
    mbc_via_duality,
    save_catalog,
    load_catalog,
)
from ._simplex import rank_of_masks
from .games import game_from_json, random_game, core_lp, core_mbc
from .decomposition import decompose, decompose_all, IncompleteDecomposition
from .verify import SUITES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_hypergraph(path):
    text = _read(path)
    if text.lstrip().startswith("{"):
        return hypergraph_from_json(text), "json"
    return parse_hypergraph(text), "text"


# ---------------------------------------------------------------- mbc


def _cmd_mbc_enum(args):
    n = args.players
    for option, value, method in (("--k-max", args.k_max, "duality"), ("--threads", args.threads, "direct")):
        if value is not None and args.method != method:
            raise ValueError("%s applies only to --method %s" % (option, method))
    if args.method == "direct":
        catalog = enumerate_mbc(n, threads=args.threads)
    elif args.method == "oracle":
        catalog = enumerate_mbc_oracle(n)
    else:
        catalog = mbc_via_duality(n, args.k_max)
    if args.out:
        fmt = "json" if args.out.endswith(".json") else "text"
        save_catalog(catalog, args.out, fmt=fmt)
    if args.json:
        print(
            json.dumps(
                {
                    "n": n,
                    "method": catalog.method,
                    "count": catalog.count,
                    "out": args.out,
                    "diagnostics": catalog.diagnostics,
                }
            )
        )
    else:
        print("count=%d" % catalog.count)
    return EXIT_OK


def _cmd_mbc_check(args):
    text = args.collection
    if args.infile is not None:
        lines = [line for line in _read(args.infile).splitlines() if line.strip()]
        if len(lines) != 1:
            raise ValueError("%s: expected one collection line, found %d" % (args.infile, len(lines)))
        text = lines[0]
    text = text.strip()
    if ":" in text:
        bc = parse_collection(text)
        n, masks = bc.n, bc.coalitions
    else:
        # weightless form n=3; [{1,2}, {1,3}]: decide balancedness here
        n, items = split_line(text)
        masks = _checked_masks(n, [parse_coalition(tok, n) for tok in items])
        bc = _cached_weights(n, masks)
    balanced = bc is not None
    # balanced is settled above (checked weights or one LP), so minimality
    # is independence alone, as in mbc_via_duality
    minimal = balanced and rank_of_masks(masks, n) == len(masks)
    if args.json:
        print(
            json.dumps(
                {
                    "n": n,
                    "coalitions": [format_coalition(s) for s in masks],
                    "balanced": balanced,
                    "minimal": minimal,
                    "weights": dict(zip(map(format_coalition, masks), bc.weight_texts()))
                    if balanced
                    else None,
                }
            )
        )
    else:
        print("balanced=%s minimal=%s" % (str(balanced).lower(), str(minimal).lower()))
        if balanced:
            print(bc.to_text())
    return EXIT_OK if minimal else EXIT_NEGATIVE


# ---------------------------------------------------------------- hyper


def _cmd_hyper_count(args):
    if args.graphs:
        for option, value in (("--degree", args.degree), ("--size", args.size)):
            if value is not None:
                raise ValueError("%s does not apply to --graphs" % option)
        if args.nodes is None:
            raise ValueError("--graphs needs --nodes")
        value = count_graphs(args.nodes)
        label = "graphs"
    elif args.table is not None:
        if args.nodes is not None:
            raise ValueError("--nodes does not apply to --table")
        if args.degree is None or args.size is None:
            raise ValueError("--table needs --degree and --size")
        counts = egf_table(args.degree, args.size, args.table)
        if args.json:
            doc = {"k": args.degree, "p": args.size, "counts": counts}
            print(json.dumps(doc, separators=(",", ":")))
        else:
            sys.stdout.write("n,count\n" + "".join("%d,%d\n" % nc for nc in enumerate(counts)))
        return EXIT_OK
    else:
        if args.nodes is None or args.degree is None or args.size is None:
            raise ValueError("need --nodes, --degree and --size")
        if args.cumulative:
            value = count_cumulative(args.nodes, args.degree, args.size)
            label = "cumulative"
        elif args.total:
            value = count_total(args.nodes, args.degree, args.size)
            label = "total"
        else:
            value = count_spanning(args.nodes, args.degree, args.size)
            label = "spanning"
    if args.json:
        print(json.dumps({"kind": label, "count": value}))
    else:
        print(value)
    return EXIT_OK


def _cmd_hyper_enum(args):
    if args.minimal:
        hs = enumerate_minimally_uniform(args.nodes, args.degree, args.size)
    else:
        hs = enumerate_uniform(args.nodes, args.degree, args.size, spanning=args.spanning)
    if args.json:
        print(
            json.dumps(
                {"count": len(hs), "hypergraphs": [json.loads(h.to_json()) for h in hs]}
            )
        )
    else:
        for h in hs:
            print(h.to_text())
        print("count=%d" % len(hs))
    return EXIT_OK


def _cmd_hyper_dual(args):
    h, fmt = _load_hypergraph(args.infile)
    d = h.dual()
    if args.json or fmt == "json":
        print(d.to_json())
    else:
        print(d.to_text())
    return EXIT_OK


def _cmd_hyper_decompose(args):
    h, _ = _load_hypergraph(args.infile)
    parts = decompose_all(h) if args.all else [decompose(h)]
    if args.json:
        print(
            json.dumps(
                {
                    "n": h.n,
                    "size": h.size,
                    "partitions": [
                        {
                            "blocks": [list(b) for b in p.block_nodes()],
                            "degrees": list(p.degrees),
                        }
                        for p in parts
                    ],
                }
            )
        )
    else:
        for p in parts:
            print(json.dumps([list(b) for b in p.block_nodes()]))
    return EXIT_OK


# ---------------------------------------------------------------- game


def _cmd_game_core(args):
    g = game_from_json(_read(args.game))
    verdict = core_mbc(g, load_catalog(args.catalog)) if args.catalog else core_lp(g)
    ok = verdict.nonempty
    if args.json:
        doc = {
            "nonempty": ok,
            "payment": [json_number(x) for x in verdict.payment] if ok else None,
            "collection": None if ok else verdict.collection.to_text(),
            "efficiency": None if ok else json_number(verdict.efficiency),
            "pivots": verdict.pivots,
        }
        print(json.dumps(doc))
    elif ok:
        print("core: nonempty")
        print("x = (%s)" % ", ".join(str(x) for x in verdict.payment))
    else:
        print("core: empty")
        print("collection: %s" % verdict.collection.to_text())
        print("efficiency: %s > v(N) = %s" % (verdict.efficiency, g.v[full_mask(g.n)]))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_game_random(args):
    g = random_game(args.players, args.seed, magnitude=args.magnitude)
    text = g.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.json:
            print("wrote %s" % args.out)
        else:
            print(json.dumps({"out": args.out, "n": g.n}))
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------- verify


_VERIFY_RANGES = ("max_n", "max_nodes", "max_size", "games")


def _cmd_verify(args):
    suite = SUITES[args.suite]
    ranges = {
        name: getattr(args, name) for name in _VERIFY_RANGES if getattr(args, name) is not None
    }
    takes = inspect.signature(suite).parameters
    unused = ["--" + name.replace("_", "-") for name in ranges if name not in takes]
    if unused:
        raise ValueError("suite %s takes no %s" % (args.suite, ", ".join(unused)))
    checks = suite(**ranges)
    ok = all(c[1] for c in checks)
    if args.json:
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "ok": ok,
                    "checks": [
                        {"name": name, "ok": good, "detail": detail}
                        for name, good, detail in checks
                    ],
                }
            )
        )
    else:
        for name, good, detail in checks:
            print("%s %s (%s)" % ("ok  " if good else "FAIL", name, detail))
        print("suite %s: %s" % (args.suite, "pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------- parser


def _build_parser():
    p = argparse.ArgumentParser(
        prog="balforge",
        description="Minimal balanced collections, core tests, and uniform hypergraph counting, all in exact arithmetic.",
    )
    p.add_argument("--version", action="version", version="balanced-forge %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    mbc = sub.add_parser("mbc", help="minimal balanced collections")
    mbc_sub = mbc.add_subparsers(dest="subcommand", required=True)

    enum = mbc_sub.add_parser("enum", help="enumerate and optionally save a catalog")
    enum.add_argument("--players", type=int, required=True)
    enum.add_argument("--method", choices=MbcCatalog.METHODS, default="direct")
    enum.add_argument("--out", help="catalog path (.json for the JSON variant)")
    enum.add_argument(
        "--k-max",
        type=int,
        default=None,
        help="duality method: cap on the cover degree (default: the largest |det| of an "
        "n x n 0/1 matrix, which finds every collection)",
    )
    enum.add_argument("--threads", type=int, default=None, help="direct method: worker processes")
    enum.add_argument("--json", action="store_true")
    enum.set_defaults(func=_cmd_mbc_enum)

    check = mbc_sub.add_parser("check", help="test a collection for minimal balancedness")
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="file holding one collection line")
    source.add_argument("--collection", help="collection literal, weights optional")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_mbc_check)

    hyper = sub.add_parser("hyper", help="uniform and regular hypergraphs")
    hyper_sub = hyper.add_subparsers(dest="subcommand", required=True)

    hc = hyper_sub.add_parser("count", help="closed-form counts")
    hc.add_argument("--nodes", type=int)
    hc.add_argument("--degree", type=int, help="edge cardinality k")
    hc.add_argument("--size", type=int, help="edge count p")
    mode = hc.add_mutually_exclusive_group()
    mode.add_argument("--cumulative", action="store_true", help="spanning counts summed over node counts up to --nodes")
    mode.add_argument("--total", action="store_true", help="spanning not required")
    mode.add_argument("--graphs", action="store_true", help="simple graphs on --nodes labeled nodes")
    mode.add_argument("--table", type=int, metavar="N_MAX", help="CSV table of spanning counts for n=0..N_MAX")
    hc.add_argument("--json", action="store_true")
    hc.set_defaults(func=_cmd_hyper_count)

    he = hyper_sub.add_parser("enum", help="list uniform hypergraphs")
    he.add_argument("--nodes", type=int, required=True)
    he.add_argument("--degree", type=int, required=True)
    he.add_argument("--size", type=int, required=True)
    he.add_argument("--spanning", action="store_true")
    he.add_argument("--minimal", action="store_true", help="minimally uniform only")
    he.add_argument("--json", action="store_true")
    he.set_defaults(func=_cmd_hyper_enum)

    hd = hyper_sub.add_parser("dual", help="dual of a proper hypergraph")
    hd.add_argument("--in", dest="infile", required=True)
    hd.add_argument("--json", action="store_true")
    hd.set_defaults(func=_cmd_hyper_dual)

    hdec = hyper_sub.add_parser("decompose", help="partition into minimally uniform blocks")
    hdec.add_argument("--in", dest="infile", required=True)
    hdec.add_argument("--all", action="store_true", help="every partition, not just the first")
    hdec.add_argument("--json", action="store_true")
    hdec.set_defaults(func=_cmd_hyper_decompose)

    game = sub.add_parser("game", help="TU games and the core")
    game_sub = game.add_subparsers(dest="subcommand", required=True)

    gc = game_sub.add_parser("core", help="core nonemptiness with certificate")
    gc.add_argument("--game", required=True, help="game JSON path")
    gc.add_argument("--catalog", help="catalog path; use the sharp criterion against it")
    gc.add_argument("--json", action="store_true")
    gc.set_defaults(func=_cmd_game_core)

    gr = game_sub.add_parser("random", help="seeded random game")
    gr.add_argument("--players", type=int, required=True)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--magnitude", type=int, default=100)
    gr.add_argument("--out")
    gr.add_argument("--json", action="store_true")
    gr.set_defaults(func=_cmd_game_random)

    ver = sub.add_parser("verify", help="self-contained verification suites")
    ver.add_argument("suite", choices=sorted(SUITES))
    for name in _VERIFY_RANGES:
        ver.add_argument("--" + name.replace("_", "-"), type=int)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except IncompleteDecomposition as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
