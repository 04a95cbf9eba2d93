"""Regenerate the stored reference values for the `scan` and
`report-momentum` workloads.

The values come from a formula independent of symcorr, which this
script does not import.  Every state of those workloads is written as
an orbital-coefficient tensor C over orthonormal orbitals,

    Psi(x1, x2, x3) = sum_abc C_abc phi_a(x1) phi_b(x2) phi_c(x3),

and a mixture without interference is a weighted list of such tensors.
Orthonormality gives the reduced densities exactly, with no quadrature
over the integrated coordinates:

    rho_k(x)       = sum over the other two indices of |sum_a phi_a(x) C..|^2
    Gamma_kl(x, y) = sum over the third index of |sum_ab phi_a(x) phi_b(y) C..|^2

The entropies -int d ln d then use composite Gauss-Legendre rules much
finer than the package's default scheme (the 3D one slice by slice, so
no 3D array is held).  Box momentum orbitals come from the closed-form
Fourier integral, with a direct Gauss-Legendre integral near the
removable points p = +/- n pi / L, and the real line is mapped by
p = S tan(theta).  Each value is computed at two resolutions; their
largest difference is stored as ``resolution_delta``.

    python3 perfbench/make_references.py            # writes references/
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "references")

C1SQ_GRID = tuple(round(0.05 * i, 2) for i in range(21))
MEASURES = ("s1", "s2", "s3", "I_pair", "I3", "I_rho_gamma",
            "I_gamma_gamma", "I_higher")

# Panels of 20 Gauss-Legendre nodes for the 1D, 2D and 3D rules, per
# space; the "check" level verifies the "fine" one.  Momentum densities
# have 1/p^4 tails that oscillate with period 2 pi; they get more nodes,
# and a wide map scale keeps the oscillations resolved out to |p| ~ 200.
LEVELS = {
    "position": {"fine": {"panels_1d": 400, "panels_2d": 60, "panels_3d": 24},
                 "check": {"panels_1d": 200, "panels_2d": 45, "panels_3d": 18}},
    "momentum": {"fine": {"panels_1d": 1600, "panels_2d": 120, "panels_3d": 48},
                 "check": {"panels_1d": 800, "panels_2d": 72, "panels_3d": 36}},
}
NODES_PER_PANEL = 20
MOMENTUM_MAP_SCALE = 60.0


# ---------------------------------------------------------------- orbitals

def box_position(n, x, L=1.0):
    return math.sqrt(2.0 / L) * np.sin(n * math.pi * x / L)


def box_momentum(n, p, L=1.0):
    """(2 pi)^-1/2 int_0^L sqrt(2/L) sin(k x) e^{-ipx} dx, k = n pi / L."""
    p = np.asarray(p, dtype=float)
    k = n * math.pi / L
    pref = math.sqrt(2.0 / L) / math.sqrt(2.0 * math.pi)
    out = np.empty(p.shape, dtype=complex)
    near = np.abs(p * p - k * k) < 1e-2 * k * k
    far = ~near
    pf = p[far]
    out[far] = pref * k * (1.0 - (-1) ** n * np.exp(-1j * pf * L)) / (k * k - pf * pf)
    if near.any():
        t, w = np.polynomial.legendre.leggauss(60)
        xs = 0.5 * L * (t + 1.0)
        ws = 0.5 * L * w
        kern = np.exp(-1j * np.outer(p[near], xs)) * np.sin(k * xs)
        out[near] = pref * (kern @ ws)
    return out


# ---------------------------------------------------------------- rules

def gauss_rule(a, b, panels, nodes):
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    mid = (edges[:-1] + edges[1:])[:, None] / 2.0
    return (mid + half * t).ravel(), (half * w).ravel()


def axis(space, panels, nodes):
    """Nodes and weights of one axis: [0, 1] or the tan-mapped real line."""
    if space == "position":
        return gauss_rule(0.0, 1.0, panels, nodes)
    theta, w = gauss_rule(-math.pi / 2, math.pi / 2, panels, nodes)
    return (MOMENTUM_MAP_SCALE * np.tan(theta),
            w * MOMENTUM_MAP_SCALE / np.cos(theta) ** 2)


def orbital_matrix(space, ns, x):
    """(len(x), len(ns)) matrix of orbital values."""
    f = box_position if space == "position" else box_momentum
    return np.stack([f(n, x) for n in ns], axis=1)


def neg_d_log_d(d):
    d = np.where(d > 1e-300, d, 1.0)
    return -d * np.log(d)


# ---------------------------------------------------------------- states

def tensor(orbitals, ns, symmetry):
    """Normalized coefficient tensor of a permanent, determinant or product."""
    r = len(orbitals)
    c = np.zeros((r, r, r))
    idx = [orbitals.index(n) for n in ns]
    if symmetry == "distinguishable":
        c[tuple(idx)] = 1.0
    else:
        for perm in itertools.permutations(range(3)):
            sign = 1.0
            if symmetry == "antisymmetric":
                sign = np.linalg.det(np.eye(3)[list(perm)])
            c[tuple(idx[p] for p in perm)] += sign
    return c / np.linalg.norm(c)


def single_state(ns, symmetry):
    orbitals = sorted(set(ns))
    return orbitals, [(1.0, tensor(orbitals, ns, symmetry))]


def superposition_state(ns_a, ns_b, symmetry, c1sq, interference):
    orbitals = sorted(set(ns_a) | set(ns_b))
    ca = tensor(orbitals, ns_a, symmetry)
    cb = tensor(orbitals, ns_b, symmetry)
    c1, c2 = math.sqrt(c1sq), math.sqrt(max(0.0, 1.0 - c1sq))
    if not interference:
        return orbitals, [(w, c) for w, c in ((c1sq, ca), (1.0 - c1sq, cb))
                          if w > 0]
    c = c1 * ca + c2 * cb
    return orbitals, [(1.0, c / np.linalg.norm(c))]


# ---------------------------------------------------------------- entropies

def entropy_1d(mixture, k, phi, w):
    rho = 0.0
    for weight, c in mixture:
        ck = np.moveaxis(c, k, 0).reshape(c.shape[0], -1)
        rho = rho + weight * np.sum(np.abs(phi @ ck) ** 2, axis=1)
    return float(w @ neg_d_log_d(rho))


def entropy_2d(mixture, pair, phi, w, block=64):
    k, l = pair
    third = ({0, 1, 2} - {k, l}).pop()
    tensors = [(weight, np.transpose(c, (k, l, third))) for weight, c in mixture]
    total = 0.0
    for start in range(0, len(w), block):
        rows = slice(start, start + block)
        gamma = 0.0
        for weight, c in tensors:
            m = np.einsum("ia,abc->ibc", phi[rows], c)
            amp = np.einsum("jb,ibc->ijc", phi, m)
            gamma = gamma + weight * np.sum(np.abs(amp) ** 2, axis=2)
        total += float(w[rows] @ neg_d_log_d(gamma) @ w)
    return total


def entropy_3d(mixture, phi, w):
    total = 0.0
    for i in range(len(w)):
        d = 0.0
        for weight, c in mixture:
            m = np.einsum("a,abc->bc", phi[i], c)
            amp = phi @ m @ phi.T
            d = d + weight * np.abs(amp) ** 2
        total += w[i] * float(w @ neg_d_log_d(d) @ w)
    return total


def measures(state, symmetry, space, level):
    orbitals, mixture = state
    lv = LEVELS[space][level]
    rules = {dim: axis(space, lv[f"panels_{dim}d"], NODES_PER_PANEL)
             for dim in (1, 2, 3)}
    phis = {dim: orbital_matrix(space, orbitals, rules[dim][0]) for dim in rules}
    if symmetry == "distinguishable":
        ones, pairs = (0, 1, 2), ((0, 1), (0, 2), (1, 2))
    else:
        ones, pairs = (0,), ((0, 1),)
    s1 = float(np.mean([entropy_1d(mixture, k, phis[1], rules[1][1]) for k in ones]))
    s2 = float(np.mean([entropy_2d(mixture, p, phis[2], rules[2][1]) for p in pairs]))
    s3 = entropy_3d(mixture, phis[3], rules[3][1])
    return {"s1": s1, "s2": s2, "s3": s3, "I_pair": 2 * s1 - s2,
            "I3": 3 * s1 - s3, "I_rho_gamma": s1 + s2 - s3,
            "I_gamma_gamma": 2 * s2 - s1 - s3,
            "I_higher": 3 * s2 - 3 * s1 - s3}


def converged(make_state, symmetry, space):
    fine = measures(make_state(), symmetry, space, "fine")
    check = measures(make_state(), symmetry, space, "check")
    delta = max(abs(fine[m] - check[m]) for m in MEASURES)
    return fine, delta


# ---------------------------------------------------------------- workloads

SCAN_CURVES = {
    # curve name: (symmetry, interference); box L = 1, position space,
    # ns = (1, 2, 3) and (4, 5, 6), the CLI defaults
    "s": ("symmetric", True),
    "a": ("antisymmetric", True),
    "d": ("distinguishable", True),
    "d-no-interference": ("distinguishable", False),
}

REPORTS = {
    # report name: (ns, symmetry); box L = 1, momentum space
    "a-1,2,3": ((1, 2, 3), "antisymmetric"),
    "s-1,1,2": ((1, 1, 2), "symmetric"),
}


def describe():
    return {
        "formula": ("orbital-coefficient tensors; exact reduced densities "
                    "by orbital orthonormality; slice-wise 3D entropy"),
        "levels": LEVELS,
        "nodes_per_panel": NODES_PER_PANEL,
        "momentum_map": f"p = {MOMENTUM_MAP_SCALE:g} tan(theta)",
        "compared_with": "the 'check' level; resolution_delta is the "
                         "largest difference",
    }


def make_scan():
    curves = {}
    worst = 0.0
    for name, (symmetry, interference) in SCAN_CURVES.items():
        rows = {}
        for c1sq in C1SQ_GRID:
            vals, delta = converged(
                lambda: superposition_state((1, 2, 3), (4, 5, 6), symmetry,
                                            c1sq, interference),
                symmetry, "position")
            rows[f"{c1sq:g}"] = vals
            worst = max(worst, delta)
        curves[name] = rows
        print(f"scan {name}: done", flush=True)
    return {"method": describe(), "resolution_delta": worst, "curves": curves}


def make_report_momentum():
    reports = {}
    worst = 0.0
    for name, (ns, symmetry) in REPORTS.items():
        vals, delta = converged(lambda: single_state(ns, symmetry), symmetry,
                                "momentum")
        reports[name] = vals
        worst = max(worst, delta)
        print(f"report {name}: done (delta {delta:.2e})", flush=True)
    return {"method": describe(), "resolution_delta": worst, "reports": reports}


def main():
    os.makedirs(REF_DIR, exist_ok=True)
    jobs = {"scan": make_scan, "report-momentum": make_report_momentum}
    for name, job in jobs.items():
        start = time.perf_counter()
        data = job()
        data["seconds"] = round(time.perf_counter() - start, 1)
        path = os.path.join(REF_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} (resolution_delta {data['resolution_delta']:.2e})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
