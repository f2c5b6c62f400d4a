"""Certificate report containers.

A report is a flat list of named entries, each carrying a machine-readable
check id (``anchor``), a status in {pass, fail, inconclusive} and a numeric
margin whose sign convention is: larger is safer, negative means violated.
"""

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_ALLOWED = (PASS, FAIL, INCONCLUSIVE)


@dataclass
class CertEntry:
    name: str
    anchor: str
    status: str
    margin: float
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _ALLOWED:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def passed(self):
        return self.status == PASS

    def to_dict(self):
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "margin": float(self.margin),
        }
        if self.data:
            out["witnesses"] = _jsonable(self.data)
        return out


def inconclusive(name, anchor, exc):
    """Entry for a check that a DegenerateCluster ``exc`` left undecided."""
    return CertEntry(name=name, anchor=anchor, status=INCONCLUSIVE, margin=0.0,
                     data={"reason": str(exc)})


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


@dataclass
class CertificateReport:
    instance_id: str
    seed: int
    tolerances: dict
    entries: list = field(default_factory=list)

    def add(self, entry):
        self.entries.append(entry)
        return entry

    def extend(self, entries):
        self.entries.extend(entries)
        return entries

    def counts(self):
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def overall(self):
        c = self.counts()
        if c[FAIL]:
            return FAIL
        if c[INCONCLUSIVE]:
            return INCONCLUSIVE
        return PASS

    def exit_code(self):
        # 0 all pass, 1 some fail, 3 inconclusive-only differences
        return {PASS: 0, FAIL: 1, INCONCLUSIVE: 3}[self.overall]

    def to_dict(self):
        return {
            "instance_id": self.instance_id,
            "seed": int(self.seed),
            "tolerances": _jsonable(self.tolerances),
            "overall": self.overall,
            "entries": [e.to_dict() for e in self.entries],
        }
