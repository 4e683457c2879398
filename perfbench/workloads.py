"""Seeded generators for the four benchmark workloads.

Each generator returns a list of operations.  An operation is what the
program receives: an argv list for ``dho.cli.main``.  A sweep operation also
carries the sweep configuration, which the worker writes to a file before
passing its path on the command line.  All randomness comes from
``random.Random(seed)``, so one seed always yields the same operations.

Operation kinds come in shuffled blocks, and each kind draws its quantum
numbers, dimension and orders from its own shuffled decks rather than
independently: a deck holds every value of its range once and is reshuffled
when used up.  The work per operation grows steeply with the quantum numbers
(the closed disequilibrium sum is O(n_r^4)), and decks keep the mix of cheap
and costly operations the same from seed to seed while the order and the
remaining parameters vary.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("query-closed", "query-entropy", "sweep-rydberg", "validate-full")

# Requests per second of the query workloads on the seed commit.  A run sends
# the whole number of rounds closest to --seconds times this, so that it
# measures about --seconds seconds of work and every run does the same work.
QUERY_RATE = {"query-closed": 55, "query-entropy": 19}


class Deck:
    """Values of a range in shuffled order, reshuffled once exhausted."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = self.values[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _mu_chain(rng: random.Random, D: int, l: int) -> list[int]:
    """A valid chain l = mu_1 >= ... >= |mu_{D-1}|, random sign on the last."""
    if D == 2:
        return [l * rng.choice((1, -1))]
    chain = [l]
    for _ in range(D - 2):
        chain.append(rng.randint(0, chain[-1]))
    if chain[-1]:
        chain[-1] *= rng.choice((1, -1))
    return chain


def _hyper(rng, D, nr, l, omega) -> dict:
    return {"kind": "hyper", "D": D, "omega": omega, "nr": nr,
            "mu": _mu_chain(rng, D, l)}


def _cartesian(degrees: list[int], omega) -> dict:
    return {"kind": "cartesian", "omega": omega, "n": degrees}


def _state_arg(state: dict) -> str:
    return json.dumps(state, separators=(",", ":"))


def _compute(state, quantity, engine="closed", space="position", **extra) -> dict:
    argv = ["compute", "--state", _state_arg(state), "--quantity", quantity,
            "--space", space, "--engine", engine]
    for key, value in extra.items():
        argv += [f"--{key}", repr(float(value))]
    return {"argv": argv}


class Decks:
    """One deck per (operation kind, parameter), so that each kind sees
    every value of each parameter equally often."""

    def __init__(self, rng: random.Random, ranges: dict):
        self.rng = rng
        self.ranges = ranges
        self.decks: dict = {}

    def draw(self, kind: str, param: str):
        key = (kind, param)
        if key not in self.decks:
            self.decks[key] = Deck(self.rng, self.ranges[param])
        return self.decks[key].draw()


def _blocks(rng: random.Random, block: tuple, count: int):
    """Operation kinds: shuffled copies of the block, count in total."""
    kinds: list[str] = []
    while len(kinds) < count:
        chunk = list(block)
        rng.shuffle(chunk)
        kinds += chunk
    return kinds[:count]


QC_BLOCK = ("energy", "moment", "moment", "heisenberg", "fisher", "fisher",
            "disequilibrium", "shannon", "renyi2", "renyi3")
QC_NMAX = 30
# one round: every kind goes through its n_r (or axis degree) deck whole
QC_ROUND = len(QC_BLOCK) * (QC_NMAX + 1)


def query_closed(seed: int, rounds: int) -> list[dict]:
    """Closed-engine compute requests over a deliberately wide range.

    Hyperspherical: D in {2,3,4,6,10}, n_r <= 30, l <= 6, omega in
    {0.5,1,2}; energy, moment, heisenberg (k=2), fisher, disequilibrium.
    Cartesian: D <= 3, per-axis n <= 30; closed Shannon and integer-q Renyi.
    The range includes the degrees where the closed Cartesian forms are
    known to fail; those requests count as failures.
    """
    rng = random.Random(seed)
    decks = Decks(rng, {"D": (2, 3, 4, 6, 10), "nr": range(QC_NMAX + 1), "l": range(7),
                        "n": range(QC_NMAX + 1), "axes": (1, 2, 3),
                        "k": (-1, 0.5, 1, 2, 3, 4)})
    ops: list[dict] = []
    for kind in _blocks(rng, QC_BLOCK, rounds * QC_ROUND):
        omega = rng.choice((0.5, 1.0, 2.0))
        space = rng.choice(("position", "momentum"))
        if kind in ("shannon", "renyi2", "renyi3"):
            st = _cartesian([decks.draw(kind, "n") for _ in range(decks.draw(kind, "axes"))],
                            omega)
            if kind == "shannon":
                ops.append(_compute(st, "shannon", space=space))
            else:
                ops.append(_compute(st, "renyi", space=space, q=int(kind[-1])))
            continue
        st = _hyper(rng, decks.draw(kind, "D"), decks.draw(kind, "nr"),
                    decks.draw(kind, "l"), omega)
        if kind == "energy":
            ops.append(_compute(st, "energy"))
        elif kind == "moment":
            ops.append(_compute(st, "moment", space=space, k=decks.draw(kind, "k")))
        elif kind == "heisenberg":
            ops.append(_compute(st, "heisenberg", k=2))
        elif kind == "fisher":
            ops.append(_compute(st, "fisher", space=space))
        else:
            ops.append(_compute(st, "disequilibrium"))
    return ops


QE_QS = (0.6, 0.75, 1.5, 2.0, 2.5, 3.0)


def query_entropy(seed: int, rounds: int) -> list[dict]:
    """Entropy requests on a small state space, so kernels repeat.

    Shannon (closed-assembled and oracle), Renyi at q in {0.6, 0.75, 1.5, 2,
    2.5, 3}, full uncertainty reports, and oracle-engine Cartesian queries.
    States: D 2-6, n_r <= 8, l <= 4.

    A round visits every (D, n_r) pair once per hyperspherical kind (twice
    for Renyi) and every (q, axis count) pair of the Cartesian Renyi requests
    twice, so that its costly requests are the same from seed to seed; l,
    the mu chains, the axis degrees, omega, the space and the order vary.
    """
    rng = random.Random(seed)
    decks = Decks(rng, {"l": range(5), "n": range(9), "axes": (1, 2, 3),
                        "q": QE_QS})
    pairs = [(D, nr) for D in range(2, 7) for nr in range(9)]
    ops: list[dict] = []
    for _ in range(rounds):
        round_ops = []
        for D, nr in pairs:
            for kind in ("shannon-closed", "shannon-oracle", "renyi", "renyi", "uncertainty"):
                st = _hyper(rng, D, nr, decks.draw(kind, "l"), rng.choice((0.5, 1.0, 2.0)))
                space = rng.choice(("position", "momentum"))
                if kind == "uncertainty":
                    round_ops.append({"argv": ["uncertainty", "--state", _state_arg(st)]})
                elif kind == "renyi":
                    round_ops.append(_compute(st, "renyi", "closed", space,
                                              q=decks.draw(kind, "q")))
                else:
                    round_ops.append(_compute(st, "shannon", kind.split("-")[1], space))
        cartesian = [("shannon", None, axes) for axes in (1, 2, 3) * 9]
        cartesian += [("renyi", q, axes) for q in QE_QS for axes in (1, 2, 3)] * 2
        for quantity, q, axes in cartesian:
            st = _cartesian([decks.draw("cartesian", "n") for _ in range(axes)],
                            rng.choice((0.5, 1.0, 2.0)))
            space = rng.choice(("position", "momentum"))
            extra = {} if q is None else {"q": q}
            round_ops.append(_compute(st, quantity, "oracle", space, **extra))
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


def sweep_rydberg(seed: int) -> list[dict]:
    """The Rydberg-scale sweep plus a short disequilibrium n_r ladder.

    The grids are fixed; the seed picks omega, the sign of m and, for the
    ladder, the angular labels, none of which changes the work much.
    """
    rng = random.Random(seed)
    m = rng.choice((1, -1))
    rydberg = {
        "states": {"kind": "hyper", "D": [3], "omega": [rng.choice((0.5, 1.0, 2.0))],
                   "nr": [50, 100, 200, 400, 800], "mu": [[0, 0], [3, m]]},
        "quantities": [{"id": "moment", "k": 1}, {"id": "shannon"},
                       {"id": "renyi", "q": 2}, {"id": "renyi", "q": 0.8}],
        "engines": ["closed", "asymptotic:rydberg"],
        "space": "position",
        "output": "json",
    }
    l = rng.randint(0, 2)
    ladder = {
        "states": {"kind": "hyper", "D": [3], "omega": [rng.choice((0.5, 1.0, 2.0))],
                   "nr": [15, 30, 45, 60, 1000], "mu": [[l, rng.randint(-l, l)]]},
        "quantities": ["disequilibrium"],
        "engines": ["closed"],
        "output": "json",
    }
    return [{"argv": ["sweep", "--config"], "config": rydberg},
            {"argv": ["sweep", "--config"], "config": ladder}]


def validate_full(seed: int) -> list[dict]:
    """The full validation preset; it has no inputs, so the seed is unused."""
    del seed
    return [{"argv": ["validate", "--preset", "full"]}]


QE_ROUND = 45 * 5 + 27 + 36


def _rounds(workload: str, seconds: float, size: int) -> int:
    return max(1, round(QUERY_RATE[workload] * seconds / size))


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    if workload == "query-closed":
        return query_closed(seed, _rounds(workload, seconds, QC_ROUND))
    if workload == "query-entropy":
        return query_entropy(seed, _rounds(workload, seconds, QE_ROUND))
    if workload == "sweep-rydberg":
        return sweep_rydberg(seed)
    if workload == "validate-full":
        return validate_full(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# reuse: how often a request's state or polynomial kernel was seen before


def _kernels(state: dict) -> list[tuple]:
    if state["kind"] == "cartesian":
        return [("hermite", n) for n in state["n"]]
    D, nr, mu = state["D"], state["nr"], state["mu"]
    l = mu[0] if D >= 3 else abs(mu[0])
    out = [("laguerre", nr, l + D / 2.0 - 1.0)]
    chain = list(mu[:-1]) + [abs(mu[-1])]
    for j in range(1, D - 1):
        out.append(("gegenbauer", chain[j - 1] - chain[j], (D - j - 1) / 2.0 + chain[j]))
    return out


def _op_states(op: dict) -> list[dict]:
    argv = op["argv"]
    if "--state" in argv:
        return [json.loads(argv[argv.index("--state") + 1])]
    cfg = op.get("config")
    if not cfg:
        return []
    spec = cfg["states"]
    return [{"kind": "hyper", "D": D, "omega": om, "nr": nr, "mu": mu}
            for D in spec["D"] for om in spec["omega"]
            for nr in spec["nr"] for mu in spec["mu"]]


def reuse_shares(ops: list[dict]) -> tuple[float, float]:
    """(share of states seen before, share whose every kernel was seen before),
    over all the states the operations name."""
    seen_states, seen_kernels = set(), set()
    total = state_hits = kernel_hits = 0
    for op in ops:
        for st in _op_states(op):
            total += 1
            key = json.dumps(st, sort_keys=True)
            state_hits += key in seen_states
            seen_states.add(key)
            ks = _kernels(st)
            kernel_hits += all(k in seen_kernels for k in ks)
            seen_kernels.update(ks)
    if not total:
        return 0.0, 0.0
    return state_hits / total, kernel_hits / total
