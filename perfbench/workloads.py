"""Workloads: seeded input pools and the timed operation.

An op is one certification as a user of the library runs it: build the
instance (or construct the symbol from a bare pair), run the full
certification pipeline, and serialise the report to the bytes the CLI
writes.  Inputs are generated from the run seed before any timing starts.

Pools are stratified.  Slot j of a pool, in round r = j // len(cells), takes
symbol kind and fiber dimension d from cell c = j % len(cells) and a theta
shape from shapes[(c + r) % len(shapes)], so len(cells) * len(shapes) slots
hold every combination once, and a pool of a given size has the same mix
for every seed.  The shape is, for separated zeros, the degree of theta (1
to 4, drawn uniformly as random_recipe draws it), and for repeated zeros
the largest multiplicity (random_recipe's own 13:7:4 mix of 2, 3 and 4, to
within 3 points).  Op cost and outcome follow these properties closely.
Unstratified pools move every metric with the seed's luck rather than with
the code, and can miss a known defect altogether.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass

KINDS = ("scalar_blaschke_times_identity", "companion", "colligation")
CELLS = tuple((kind, d) for d in (3, 2, 1) for kind in KINDS)
DEGREES = (1, 2, 3, 4)
MULTS = (2, 3, 2, 4, 2, 3, 2, 4, 2, 3, 2)

PRESETS = {
    "cli": {"boundary_n": 2048, "disc_grid": (64, 256)},
    "spec": {"boundary_n": 512, "disc_grid": (16, 64)},
}

# op outcomes; every other exception is "error:<ExceptionType>"
PASS, INCONCLUSIVE, FAIL = "pass", "inconclusive", "fail"
NO_SYMBOL = "no_symbol"
STATUSES = (PASS, INCONCLUSIVE, FAIL)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    repeated: bool      # theta zeros of multiplicity > 1
    construct: bool     # symbol withheld: construct_psi from the pair
    size: int           # pool slots: one or two passes in a 22 s window
    cells: tuple = CELLS
    shapes: tuple = None    # default: MULTS if repeated, else DEGREES


WORKLOADS = {
    w.name: w for w in (
        Workload("cli_separated", "cli", False, False, 24),
        Workload("spec_repeated", "spec", True, False, 60),
        # construct_psi returns a symbol, in well under a second, only for
        # companion pairs of theta degree 2 or more.  Every other d >= 2 pair
        # crashes it (known defect, see DEFECT_PROBE), and other d = 1 pairs
        # end NoInnerSolution after 3 to 30 s of search, too few per run for
        # a steady figure
        Workload("pair_construct", "spec", False, True, 72,
                 tuple(("companion", d) for d in (3, 2, 1)), (2, 3, 4)),
    )
}

# d >= 2 pairs on which construct_psi raises ValueError today.  They are not
# timed ops: pair_construct runs them once after its window and reports how
# many still crash, so the defect stays in view until it is fixed
DEFECT_PROBE = Workload("construct_psi_crash", "spec", False, True, 3,
                        tuple((kind, 2) for kind in KINDS), (1,))


@dataclass(frozen=True)
class Item:
    """One pool entry: a recipe, plus the bare pair when the symbol is withheld."""

    spec: object
    pair: object = None


@dataclass(frozen=True)
class Outcome:
    status: str
    payload: bytes      # report bytes, or the outcome name for ops without one
    reported: bool = False


def _cell(spec, repeated):
    ps = spec.psi_spec
    d = int(ps["d"]) if "d" in ps else len(ps["D"])
    mults = [m for _, m in spec.theta_zeros]
    return ps["kind"], d, max(mults) if repeated else len(mults)


def make_pool(dv, wl, seed, size=None):
    """The seed's input pool in slot order, truncated to ``size`` slots.

    A slot draws random_recipe with its kind, max_d set to its d and, for
    separated zeros, max_theta_deg set to its degree, until a draw hits its targets;
    draws that miss are kept for later slots they fit.  Conditioned on the
    targets, a recipe has random_recipe's own distribution.
    """
    preset = PRESETS[wl.preset]
    shapes = wl.shapes or (MULTS if wl.repeated else DEGREES)
    cursor = dict.fromkeys(KINDS, 0)
    spare = {}
    pool = []
    for j in range(wl.size if size is None else size):
        c, r = j % len(wl.cells), j // len(wl.cells)
        kind, d = wl.cells[c]
        cell = (kind, d, shapes[(c + r) % len(shapes)])
        limits = {"max_d": d}
        if not wl.repeated:
            limits["max_theta_deg"] = cell[2]
        while not spare.get(cell):
            s = seed * 3000 + KINDS.index(kind) * 1000 + cursor[kind]
            cursor[kind] += 1
            recipe = dv.random_recipe(s, repeated=wl.repeated, kinds=(kind,), **limits)
            spare.setdefault(_cell(recipe, wl.repeated), []).append(recipe)
        spec = dataclasses.replace(spare[cell].pop(0), **preset)
        pool.append(Item(spec, dv.make_instance(spec).pair if wl.construct else None))
    return pool


def warmup_item(dv, wl):
    """Fixed seed-independent input (the curve w^2 = z) for the warm-up op."""
    spec = dv.InstanceSpec(theta_zeros=((0j, 2),), psi_spec={"kind": "companion", "d": 2},
                           seed=0, **PRESETS[wl.preset])
    return Item(spec, dv.make_instance(spec).pair if wl.construct else None)


def run_op(dv, item):
    """The timed operation.  Library calls go through package attributes,
    so a traced run sees them."""
    try:
        if item.pair is None:
            inst = dv.make_instance(item.spec)
        else:
            spec = item.spec
            psi = dv.construct_psi(item.pair, seed=spec.seed)
            label = dv.InstanceSpec(
                theta_zeros=(), psi_spec={"kind": "supplied"}, seed=spec.seed,
                boundary_n=spec.boundary_n, disc_grid=spec.disc_grid,
                label=f"pair[{spec.seed}]",
            )
            inst = dv.Instance(spec=label, theta=None, psi=psi, pair=item.pair)
        report = dv.run_certification(inst).to_dict()
        payload = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    except dv.errors.NoInnerSolution:
        return Outcome(NO_SYMBOL, NO_SYMBOL.encode())
    except dv.errors.DegenerateCluster:
        return Outcome(INCONCLUSIVE, b"DegenerateCluster")
    except Exception as exc:  # any other exception is a failed op, counted
        status = f"error:{type(exc).__name__}"
        return Outcome(status, status.encode())
    return Outcome(report["overall"], payload, reported=True)


def check_outcome(outcome):
    """Output checks on one op; returns a list of problems (empty when fine)."""
    if not outcome.reported:
        return []
    try:
        back = json.loads(outcome.payload)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if (json.dumps(back, sort_keys=True, indent=2) + "\n").encode() != outcome.payload:
        problems.append("report does not round-trip through JSON")
    statuses = [e.get("status") for e in back.get("entries", [])]
    if not statuses or any(s not in STATUSES for s in statuses):
        problems.append(f"entry statuses outside {STATUSES}: {sorted(set(map(str, statuses)))}")
    overall = FAIL if FAIL in statuses else INCONCLUSIVE if INCONCLUSIVE in statuses else PASS
    if back.get("overall") != overall:
        problems.append(f"overall {back.get('overall')!r} disagrees with its entries")
    return problems


def digest(payloads):
    """sha256 over the per-item payloads of one pass, in pool order."""
    h = hashlib.sha256()
    for p in payloads:
        h.update(len(p).to_bytes(8, "big"))
        h.update(p)
    return h.hexdigest()
