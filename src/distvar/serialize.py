"""JSON / CSV / SVG serialization for every external file format.

All writers are deterministic: dictionaries are emitted with sorted keys and
floats use their shortest round-trip representation, so identical inputs
produce byte-identical artifacts.
"""

import json

import numpy as np

from .errors import malformed
from .inner import (
    BPFactor,
    from_bp_factors,
    from_colligation,
    from_polynomial,
    from_scalar_blaschke_identity,
)
from .opcore import validate_pair
from .poly import BlaschkeProduct, Poly2
from .tolerances import DEFAULT


def complex_to_json(c):
    c = complex(c)
    return [float(c.real), float(c.imag)]


def complex_from_json(v):
    """A [re, im] pair as a complex number; a NaN or infinite part raises
    ValueError."""
    c = complex(float(v[0]), float(v[1]))
    if not np.isfinite(c):
        raise ValueError(f"non-finite value {[c.real, c.imag]}")
    return c


def matrix_to_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[complex_to_json(v) for v in row] for row in m]


def matrix_from_json(rows):
    if not rows:
        return np.zeros((0, 0), dtype=complex)
    return np.array(
        [[complex_from_json(v) for v in row] for row in rows], dtype=complex
    )


def poly2_to_json(p):
    return {"coeffs": matrix_to_json(p.coeffs)}


def poly2_from_json(obj):
    return Poly2(matrix_from_json(obj["coeffs"]))


def blaschke_to_json(b):
    return {
        "zeros": [
            {"point": complex_to_json(a), "multiplicity": int(m)} for a, m in b.zeros
        ],
        "constant": complex_to_json(b.constant),
    }


def multiplicity_from_json(zero):
    """The multiplicity of a zero entry, 1 when absent.  A non-integral value
    raises TypeError, which ``malformed`` reports as invalid input."""
    m = zero.get("multiplicity", 1)
    if isinstance(m, float) and not m.is_integer():
        raise TypeError(f"multiplicity {m!r} is not an integer")
    return int(m)


def blaschke_from_json(obj):
    zeros = [
        (complex_from_json(z["point"]), multiplicity_from_json(z))
        for z in obj["zeros"]
    ]
    return BlaschkeProduct(zeros, complex_from_json(obj.get("constant", [1.0, 0.0])))


def psi_to_json(psi):
    if psi.kind == "colligation":
        return {
            "kind": "colligation",
            "A": matrix_to_json(psi.data["A"]),
            "B": matrix_to_json(psi.data["B"]),
            "C": matrix_to_json(psi.data["C"]),
            "D": matrix_to_json(psi.data["D"]),
        }
    if psi.kind == "bp_product":
        return {
            "kind": "bp_product",
            "leading": matrix_to_json(psi.data["leading"]),
            "factors": [
                {
                    "zero": complex_to_json(f.zero),
                    "projection": matrix_to_json(f.projection),
                    "unitary": matrix_to_json(f.unitary),
                }
                for f in psi.data["factors"]
            ],
        }
    return {
        "kind": "polynomial",
        "coeffs": [matrix_to_json(c) for c in psi.data["coeffs"]],
    }


def psi_from_json(obj, tol=DEFAULT):
    """Symbol from its JSON form, checked against ``tol``.

    A value of the wrong type or length raises ValueError.
    """
    with malformed("symbol"):
        kind = obj["kind"]
    if kind == "colligation":
        with malformed("symbol"):
            blocks = [matrix_from_json(obj[k]) for k in ("A", "B", "C", "D")]
        return from_colligation(*blocks, tol=tol)
    if kind == "bp_product":
        with malformed("symbol"):
            factors = [
                BPFactor(
                    complex_from_json(f["zero"]),
                    matrix_from_json(f["projection"]),
                    matrix_from_json(f["unitary"]),
                    tol=tol,
                )
                for f in obj["factors"]
            ]
            leading = matrix_from_json(obj["leading"]) if "leading" in obj else None
        return from_bp_factors(factors, leading=leading, tol=tol)
    if kind == "scalar_blaschke_times_identity":
        with malformed("symbol"):
            b, d = blaschke_from_json(obj), int(obj["d"])
        return from_scalar_blaschke_identity(b, d, tol=tol)
    if kind == "polynomial":
        with malformed("symbol"):
            coeffs = np.array([matrix_from_json(c) for c in obj["coeffs"]])
        return from_polynomial(coeffs, tol=tol)
    raise ValueError(f"unknown symbol kind {kind!r}")


def pair_to_json(pair, require_pure=True):
    return {
        "t1": matrix_to_json(pair.t1),
        "t2": matrix_to_json(pair.t2),
        "require_pure": bool(require_pure),
    }


def pair_from_json(obj, tol=DEFAULT):
    with malformed("pair"):
        t1, t2 = matrix_from_json(obj["t1"]), matrix_from_json(obj["t2"])
        require_pure = bool(obj.get("require_pure", False))
    return validate_pair(t1, t2, require_pure=require_pure, tol=tol)


def variety_to_json(variety):
    return {
        "p": poly2_to_json(variety.p),
        "degz": variety.degz,
        "degw": variety.degw,
    }


def bundle_to_json(bundle):
    return {
        "J": matrix_to_json(bundle.j),
        "psi": psi_to_json(bundle.psi),
        "m1": blaschke_to_json(bundle.m1),
        "kpsi_basis": matrix_to_json(bundle.kpsi_basis),
        "S1": matrix_to_json(bundle.s1),
        "S2": matrix_to_json(bundle.s2),
        "residuals": {k: float(v) for k, v in sorted(bundle.residuals.items())},
    }


def dump_json(obj, path):
    """Write ``obj`` as strict JSON (RFC 8259): a NaN or infinite float
    raises ValueError rather than being written as a bare token."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_samples_csv(path, samples, q=None):
    """Sample dump with columns re_z, im_z, re_w, im_w, abs_q."""
    lines = ["re_z,im_z,re_w,im_w,abs_q"]
    iz, iw = samples.interior
    zall = np.concatenate([samples.boundary_z, iz])
    wall = np.concatenate([samples.boundary_w, iw])
    for z, w in zip(zall, wall):
        a = float(abs(q(z, w))) if q is not None else 0.0
        lines.append(
            f"{float(z.real)!r},{float(z.imag)!r},"
            f"{float(w.real)!r},{float(w.imag)!r},{a!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _svg_panel(points, x0, title):
    size, pad = 420, 40
    out = []
    out.append(
        f'<rect x="{x0 + pad}" y="{pad}" width="{size - 2 * pad}" '
        f'height="{size - 2 * pad}" fill="none" stroke="black"/>'
    )
    out.append(
        f'<text x="{x0 + size / 2:.1f}" y="{pad - 12}" text-anchor="middle" '
        f'font-size="14">{title}</text>'
    )
    for x, y in points:
        px = x0 + pad + (x + 1.0) / 2.0 * (size - 2 * pad)
        py = pad + (1.0 - (y + 1.0) / 2.0) * (size - 2 * pad)
        out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5" fill="steelblue"/>')
    return out


def write_variety_svg(path, samples):
    """Two-panel scatter: boundary fiber angles and the interior fiber cloud."""
    width, height = 420, 420
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * width}" '
        f'height="{height}" viewBox="0 0 {2 * width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    angles = [
        (np.angle(z) / np.pi, np.angle(w) / np.pi)
        for z, w in zip(samples.boundary_z, samples.boundary_w)
    ]
    body += _svg_panel(angles, 0, "arg z vs arg w over boundary fibers")
    cloud = [(w.real, w.imag) for w in samples.interior[1]]
    body += _svg_panel(cloud, width, "interior fiber cloud (Re w, Im w)")
    body.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(body))
        fh.write("\n")
