"""Seeded request lists for the three benchmark workloads.

A request is the argv one user would type after ``hypbranch``, with the exit
code the benchmark expects and the parameters its oracle needs.  Requests
come in blocks; every block of a workload has the same degree multiset, so a
run that does more or fewer blocks still has the same mix.  A fixed generator
chooses signatures, targets and formats, so every seed gives a run the same
requests and the same work; the seed chooses their order.  The number of blocks follows
from ``--seconds`` through a per-workload reference block time measured on a
2-core x86-64 container, so the work of a run does not depend on how fast the
program is.

Half-integer parameters are passed doubled, as the CLI expects.  With ``a``
the ambient harmonic degree, ``c`` a g1 target degree and ``b`` a g2 target
degree on X(p, q):

    lambda_x2 = 2a + 2 - (p - q)
    nu_x2     = 2c + 2 - (p - 1 - q)      (target on X(p-1, q))
    mu_x2     = 2b + 2 - (p - q + 1)      (target on X(p, q-1))
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("g2_scan", "g1_degree_ladder", "cli_mixed")

# g2_scan: one branch scan per degree per block.  Doubled degrees put the
# median of a block inside the a = 7 scans and its 90th percentile inside the
# a = 16 scans, away from a jump between degrees.
G2_DEGREES = (2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 7, 8, 9, 10, 11, 12, 14, 16, 16, 20)
G2_SIGNATURES = tuple(itertools.product((4, 5, 6), (5, 6, 7, 8)))

# g1_degree_ladder: the ROADMAP degree ladder; scans up to SCAN_MAX_DEGREE,
# singleton reports above it.
LADDER = (0, 4, 16, 32, 48, 100, 200, 400)
SCAN_MAX_DEGREE = 100
G1_QS = (4, 5, 6, 7)
G1_PS = (5, 6, 7)

# cli_mixed: g2 witness singletons use (a, q) pairs disjoint from the ones
# the check suites touch (a <= 6), each once per run.
CHECK_SUITES = ("quadrature", "harmonics", "decay", "branching", "packets", "conjecture")
PACKET_SIGNATURES = ((4, 4), (4, 6), (4, 8), (6, 6), (6, 8), (8, 8))
WITNESS_PAIRS = tuple(itertools.product(range(10, 18), (5, 6, 7, 8)))
WITNESS_PER_BLOCK = 4

# Reference seconds per block (2-core x86-64 container) and the most blocks
# a run may use without repeating what must stay distinct.
BLOCK_SECONDS = {"g2_scan": 4.0, "g1_degree_ladder": 2.5, "cli_mixed": 3.0}
MAX_BLOCKS = {
    "g2_scan": len(G2_SIGNATURES) // max(G2_DEGREES.count(a) for a in set(G2_DEGREES)),
    "g1_degree_ladder": 60,
    "cli_mixed": len(WITNESS_PAIRS) // WITNESS_PER_BLOCK,
}


def lambda_x2(p: int, q: int, a: int) -> int:
    return 2 * a + 2 - (p - q)


def g1_target_x2(p: int, q: int, c: int) -> int:
    return 2 * c + 2 - (p - 1 - q)


def g2_target_x2(p: int, q: int, b: int) -> int:
    return 2 * b + 2 - (p - q + 1)


def _request(kind, argv, a=None, expect=0, **params):
    return {"kind": kind, "argv": [str(x) for x in argv], "a": a, "expect": expect, "params": params}


def _branch(p, q, a, subgroup, fmt):
    target = g1_target_x2 if subgroup == "g1" else g2_target_x2
    lam, top = lambda_x2(p, q, a), target(p, q, a + 2)
    argv = ["branch", "--p", p, "--q", q, "--lambda-x2", lam, "--subgroup", subgroup,
            "--max-target-x2", top, "--format", fmt]
    return _request("branch", argv, a, p=p, q=q, lam_x2=lam, subgroup=subgroup,
                    max_target_x2=top, format=fmt)


def _fj(p, q, a):
    lam = lambda_x2(p, q, a)
    return _request("fj", ["fj", "--p", p, "--q", q, "--lambda-x2", lam], a, p=p, q=q, lam_x2=lam)


def _period(p, q, a, subgroup, target_degree, witness=False):
    target = g1_target_x2 if subgroup == "g1" else g2_target_x2
    lam, t = lambda_x2(p, q, a), target(p, q, target_degree)
    argv = ["period", "--p", p, "--q", q, "--lambda-x2", lam, "--target-x2", t, "--subgroup", subgroup]
    if witness:
        argv.append("--witness")
    return _request("period", argv, a, p=p, q=q, lam_x2=lam, target_x2=t,
                    subgroup=subgroup, witness=witness)


def _g2_scan_blocks(rng, n_blocks):
    # Each (p, q, lambda) appears once per run: every degree takes a fresh
    # signature from its own shuffled list.
    pools = {}
    for a in sorted(set(G2_DEGREES)):
        pool = list(G2_SIGNATURES)
        rng.shuffle(pool)
        pools[a] = iter(pool)
    blocks = []
    for _ in range(n_blocks):
        block = []
        for a in G2_DEGREES:
            p, q = next(pools[a])
            block.append(_branch(p, q, a, "g2", rng.choice(("json", "csv"))))
        blocks.append(block)
    return blocks


def _g1_p(rng, q, a, c=None):
    # lambda > 0 needs p - q < 2a + 2; a target nu > 0 needs p - q < 2c + 3.
    c = a if c is None else c
    return rng.choice([p for p in G1_PS if p - q < min(2 * a + 2, 2 * c + 3)])


def _g1_ladder_blocks(rng, n_blocks):
    # Per q: a scan (up to SCAN_MAX_DEGREE), an fj and a diagonal period at
    # every ladder degree; the off-diagonal targets c = a - 2 and c = a + 2
    # only from SCAN_MAX_DEGREE up, where they show defect (b).  With this
    # mix the median of a block falls among the fj and period reports at
    # a = 100 to 400 (5 to 15 ms), above the cheap reports at a <= 48, and
    # its 90th percentile among the scans at a = 32.
    blocks = []
    for _ in range(n_blocks):
        block = []
        for q in G1_QS:
            for a in LADDER:
                if a <= SCAN_MAX_DEGREE:
                    block.append(_branch(_g1_p(rng, q, a), q, a, "g1", rng.choice(("json", "csv"))))
                block.append(_fj(_g1_p(rng, q, a), q, a))
                block.append(_period(_g1_p(rng, q, a), q, a, "g1", a))
                if a >= SCAN_MAX_DEGREE:
                    for c in (a - 2, a + 2):
                        block.append(_period(_g1_p(rng, q, a), q, a, "g1", c))
        blocks.append(block)
    return blocks


def _cli_mixed_blocks(rng, n_blocks):
    # Every run uses all of WITNESS_PAIRS, so its cold-witness cost does not
    # depend on the seed; they straddle the 90th percentile of a block.
    pairs = list(WITNESS_PAIRS)
    rng.shuffle(pairs)
    blocks = []
    for k in range(n_blocks):
        block = [
            _request("check", ["check", "--suite", s, "--seed", rng.randrange(1000)], suite=s)
            for s in CHECK_SUITES
        ]
        for p, q in rng.sample(PACKET_SIGNATURES, 4):
            lam = 2 * rng.randrange(1, 6)
            block.append(_request("packet", ["packet", "--p", p, "--q", q, "--lambda-x2", lam],
                                  p=p, q=q, lam_x2=lam))
        for _ in range(14):
            p, q = rng.randrange(4, 9), rng.randrange(4, 9)
            block.append(_fj(p, q, rng.randrange(max(0, p - q), 9)))
        for _ in range(12):
            q = rng.randrange(4, 9)
            a = rng.randrange(2, 13)
            c = rng.choice((a - 1, a, a + 1))
            block.append(_period(_g1_p(rng, q, a, c), q, a, "g1", c))
        for a, q in pairs[k * WITNESS_PER_BLOCK:(k + 1) * WITNESS_PER_BLOCK]:
            p = rng.randrange(4, 7)
            b = rng.randrange(0, a + 2)
            if g2_target_x2(p, q, b) <= 0:
                b += 1
            block.append(_period(p, q, a, "g2", b, witness=True))
        # Two user mistakes: a half-integral degree and a signature below the
        # standing assumption p, q >= 4.  Both must exit 2.
        p, q = rng.randrange(4, 9), rng.randrange(4, 9)
        block.append(_request("fj", ["fj", "--p", p, "--q", q, "--lambda-x2",
                                     lambda_x2(p, q, 3) + 1], expect=2))
        block.append(_request("branch", ["branch", "--p", 3, "--q", q, "--lambda-x2", 4,
                                         "--subgroup", "g1", "--max-target-x2", 6], expect=2))
        blocks.append(block)
    return blocks


GENERATORS = {
    "g2_scan": _g2_scan_blocks,
    "g1_degree_ladder": _g1_ladder_blocks,
    "cli_mixed": _cli_mixed_blocks,
}


def block_count(workload: str, seconds: float) -> int:
    wanted = max(1, math.ceil(seconds / BLOCK_SECONDS[workload]))
    return min(wanted, MAX_BLOCKS[workload])


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The request list of one run, in the order the seed gives it.

    The requests themselves depend only on the workload and the block count,
    so every seed gives a run the same work; the seed shuffles the blocks
    and the requests inside each block.
    """
    blocks = GENERATORS[workload](random.Random(workload), block_count(workload, seconds))
    rng = random.Random(f"{workload}:{seed}")
    rng.shuffle(blocks)
    requests = []
    for index, block in enumerate(blocks):
        rng.shuffle(block)
        requests.extend({**req, "block": index} for req in block)
    return requests
