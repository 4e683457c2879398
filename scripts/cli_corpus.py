#!/usr/bin/env python3
"""Fixed CLI corpus (compute, uncertainty, sweep, validate) for before/after checks.

    PYTHONPATH=src python scripts/cli_corpus.py new.json [--against old.json]

Runs every command through dho.cli.main in one process, in a temporary
directory that holds the sweep configs, and writes argv, exit code (or the
type of an uncaught exception) and stdout as JSON.  With
--against, lists the outputs that differ from the old file, prints how many
are byte-identical, the worst relative deviation of any float and the worst
|new - old| value over the old record's error_estimate, where that is a
number; differing argv or exit codes abort.
"""

import argparse
import contextlib
import io
import json
import tempfile

from dho import cli


def _hyper(D, nr, mu):
    return json.dumps({"kind": "hyper", "D": D, "omega": 1.0, "nr": nr, "mu": mu})


SMALL = [_hyper(2, 3, [2]), _hyper(3, 2, [1, 0]), _hyper(4, 1, [1, 1, 0]),
         _hyper(5, 2, [2, 1, 0, 0]), _hyper(6, 1, [1, 0, 0, 0, 0])]
LARGE = [_hyper(3, 100, [0, 0]), _hyper(3, 200, [3, 1]), _hyper(6, 100, [0, 0, 0, 0, 0])]
CART = [json.dumps({"kind": "cartesian", "omega": w, "n": n})
        for w, n in ((1.0, [8]), (2.0, [3, 2]), (0.5, [1, 0, 2]))]
# kept here rather than read from cli.QUANTITIES so the corpus stays fixed
# while the program under comparison changes
SERVED = {"energy": ("closed",), "heisenberg": ("closed", "asymptotic"),
          "fisher": ("closed", "oracle"), "disequilibrium": ("closed", "oracle"),
          "moment": ("closed", "oracle", "asymptotic"),
          "shannon": ("closed", "oracle", "asymptotic"),
          "renyi": ("closed", "oracle", "asymptotic")}
EXTRA = {"moment": ["--k", "1"], "heisenberg": ["--k", "2"], "renyi": ["--q", "2"]}
# config file name -> sweep config: JSON rows with per-row errors (unserved
# pairs), and CSV rows over a Cartesian grid
SWEEPS = {
    "rows.json": {"states": {"kind": "hyper", "D": 3, "omega": 1.0, "nr": [0, 2, 5],
                             "mu": [[0, 0], [1, 0]]},
                  "quantities": ["energy", {"id": "moment", "k": 2},
                                 {"id": "heisenberg", "k": 2}, "shannon"],
                  "engines": ["closed", "oracle", "asymptotic"], "output": "json"},
    "grid.json": {"states": {"kind": "cartesian", "omega": [0.5, 1.0],
                             "n": [[1, 0], [2, 1], [0, 3]]},
                  "quantities": ["shannon", {"id": "renyi", "q": 0.7}],
                  "engines": ["closed", "oracle"], "space": "momentum", "output": "csv"},
}


def corpus():
    """Every served quantity x engine pair on three small hyperspherical states
    (rotating through SMALL), one large one and, where served, one Cartesian;
    then the uncertainty reports, the sweeps and the full validate report."""
    runs = []
    for i, (quantity, engine) in enumerate((q, e) for q, es in SERVED.items() for e in es):
        states = [SMALL[(i + j) % len(SMALL)] for j in range(3)]
        if engine != "oracle" and quantity != "disequilibrium":  # O(n_r^4) closed sum
            states.append(LARGE[i % len(LARGE)])
        if quantity in ("energy", "shannon", "renyi"):
            states.append(CART[i % len(CART)])
        runs += [["compute", "--state", st, "--quantity", quantity, "--engine", engine]
                 + EXTRA.get(quantity, []) for st in states]
    for states, tail in ((SMALL[:2], ["moment", "--k", "-1", "--space", "momentum"]),
                         (SMALL[:2], ["renyi", "--q", "0.7", "--engine", "oracle"]),
                         (SMALL[3:], ["moment", "--k", "2", "--engine", "asymptotic",
                                      "--regime", "highdim"]),
                         (LARGE, ["shannon", "--space", "momentum"])):
        runs += [["compute", "--state", st, "--quantity"] + tail for st in states]
    runs += [["uncertainty", "--state", st] for st in SMALL[:3] + CART[1:]]
    runs += [["sweep", "--config", name] for name in SWEEPS]
    return runs + [["validate", "--preset", "full"]]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught error is recorded by its type
            code = type(exc).__name__
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _floats(obj[key])
    elif isinstance(obj, list):
        for item in obj:
            yield from _floats(item)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(new, old):
    same, worst, where = 0, 0.0, None
    worst_est, where_est = None, None
    for a, b in zip(new, old):
        if a["argv"] != b["argv"] or a["exit"] != b["exit"]:
            raise SystemExit(f"argv or exit code differs: {a['argv']}")
        if a["stdout"] == b["stdout"]:
            same += 1
            continue
        if a["argv"][0] == "sweep" and SWEEPS[a["argv"][2]]["output"] == "csv":
            print("differs (CSV):", " ".join(a["argv"]))
            continue
        ra = [json.loads(s) for s in a["stdout"].splitlines()]
        rb = [json.loads(s) for s in b["stdout"].splitlines()]
        for x, y in zip(ra, rb):
            est = y.get("error_estimate")
            if _number(est) and est > 0 and _number(x.get("value")) and _number(y.get("value")):
                ratio = abs(x["value"] - y["value"]) / est
                if worst_est is None or ratio > worst_est:
                    worst_est, where_est = ratio, a["argv"]
        fa, fb = list(_floats(ra)), list(_floats(rb))
        # a field that turned from null into a number (or back) is reported,
        # and the record's floats are not paired up
        print("differs:" if len(fa) == len(fb) else "differs (null <-> number):",
              " ".join(a["argv"]))
        for x, y in zip(fa, fb) if len(fa) == len(fb) else ():
            dev = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
            if dev > worst:
                worst, where = dev, a["argv"]
    print(f"byte-identical: {same}/{len(new)}")
    print(f"worst relative float deviation: {worst:.3g}" + (f" at {where}" if where else ""))
    if worst_est is not None:
        print(f"worst |new - old| / old error_estimate: {worst_est:.3g} at {where_est}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--against", default=None)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, config in SWEEPS.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        results = [run(argv) for argv in corpus()]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)
        if len(old) != len(results):
            raise SystemExit("corpus length differs")
        compare(results, old)


if __name__ == "__main__":
    main()
