"""Probability measures on [0,1]: piecewise-affine density plus atoms.

A MeasureSpec carries an absolutely-continuous part made of affine
density pieces rho(x) = c0 + c1*x on disjoint intervals, and a finite
list of atoms.  This class is closed under everything the package
needs (uniform and tilted-affine densities, point masses, mixtures) and
keeps moments, interval masses and inverse-CDF sampling in closed form,
so no quadrature error enters the core.  Quantiles of long inputs are
inverted in fixed-size blocks, with the same values as one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MeasureSpec",
    "lebesgue",
    "affine",
    "dirac",
    "moment",
    "bias",
    "interval_mass",
    "atom_mass",
    "cdf",
    "quantile",
    "sample",
    "reflect",
    "to_dict",
    "from_dict",
    "to_json",
    "from_json",
]

_MASS_TOL = 1e-12
_BLOCK = 1 << 15  # values per quantile block: its temporaries fit in L2


@dataclass(frozen=True)
class MeasureSpec:
    """A probability measure on [0,1].

    pieces: ((x_lo, x_hi, c0, c1), ...) with density c0 + c1*x on each
        interval; intervals are disjoint, ordered and inside [0,1].
    atoms: ((location, mass), ...) with distinct locations in [0,1].
    Total mass must equal 1 to within 1e-12; construction fails loudly
    instead of renormalizing.
    """

    pieces: tuple[tuple[float, float, float, float], ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        pieces = tuple(tuple(float(v) for v in p) for p in self.pieces)
        atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "atoms", atoms)
        prev_hi = 0.0
        for lo, hi, c0, c1 in pieces:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"piece [{lo}, {hi}] not a proper subinterval of [0,1]")
            if lo < prev_hi:
                raise ValueError("density pieces must be ordered and non-overlapping")
            prev_hi = hi
            # affine density: endpoint checks suffice for nonnegativity
            if c0 + c1 * lo < -_MASS_TOL or c0 + c1 * hi < -_MASS_TOL:
                raise ValueError(f"density negative on piece [{lo}, {hi}]")
        locs = [x for x, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        for x, m in atoms:
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"atom location {x} outside [0,1]")
            if not (0.0 <= m <= 1.0):
                raise ValueError(f"atom mass {m} outside [0,1]")
        total = self.continuous_mass() + sum(m for _, m in atoms)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass {total!r} != 1 (no silent renormalization)")

    def continuous_mass(self) -> float:
        return sum(c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo) for lo, hi, c0, c1 in self.pieces)

    def density(self, x: np.ndarray | float) -> np.ndarray | float:
        """Density of the absolutely-continuous part (atoms excluded)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for lo, hi, c0, c1 in self.pieces:
            mask = (x >= lo) & (x <= hi)
            out = np.where(mask, c0 + c1 * x, out)
        return out if out.ndim else float(out)


def lebesgue() -> MeasureSpec:
    """Uniform measure on [0,1]."""
    return MeasureSpec(pieces=((0.0, 1.0, 1.0, 0.0),), label="lebesgue")


def affine(b0: float) -> MeasureSpec:
    """Tilted-uniform density (1 - b0/2) + b0*x, b0 in [-2, 2].

    First moment is 1/2 + b0/12; the endpoints b0 = +/-2 give the
    triangular densities 2x and 2(1-x).
    """
    if not -2.0 <= b0 <= 2.0:
        raise ValueError("b0 outside [-2, 2]: density would go negative")
    return MeasureSpec(pieces=((0.0, 1.0, 1.0 - 0.5 * b0, float(b0)),), label=f"affine(b0={b0:g})")


def dirac(x: float) -> MeasureSpec:
    """Point mass at x."""
    return MeasureSpec(atoms=((float(x), 1.0),), label=f"dirac({x:g})")


def moment(spec: MeasureSpec, i: int) -> float:
    """i-th raw moment, integral of x^i, in closed form."""
    if i < 1:
        raise ValueError("moment order must be >= 1")
    total = 0.0
    for lo, hi, c0, c1 in spec.pieces:
        total += c0 * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        total += c1 * (hi ** (i + 2) - lo ** (i + 2)) / (i + 2)
    total += sum(m * x**i for x, m in spec.atoms)
    return total


def bias(spec: MeasureSpec) -> float:
    """First moment minus 1/2."""
    return moment(spec, 1) - 0.5


def interval_mass(spec: MeasureSpec, lo: float, hi: float) -> float:
    """Mass of [lo, hi], atoms at the endpoints included."""
    if lo > hi:
        raise ValueError(f"interval bounds out of order: {lo} > {hi}")
    if not (0.0 <= lo and hi <= 1.0):
        raise ValueError("interval must lie inside [0,1]")
    total = 0.0
    for plo, phi, c0, c1 in spec.pieces:
        a, b = max(lo, plo), min(hi, phi)
        if a < b:
            total += c0 * (b - a) + 0.5 * c1 * (b * b - a * a)
    total += sum(m for x, m in spec.atoms if lo <= x <= hi)
    return total


def atom_mass(spec: MeasureSpec, x: float) -> float:
    """Mass of the single point x (zero unless x carries an atom)."""
    return interval_mass(spec, x, x)


def cdf(spec: MeasureSpec, x: np.ndarray | float) -> np.ndarray | float:
    """Right-continuous CDF, vectorized."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xs)
    for lo, hi, c0, c1 in spec.pieces:
        b = np.clip(xs, lo, hi)
        out += np.where(xs >= lo, c0 * (b - lo) + 0.5 * c1 * (b * b - lo * lo), 0.0)
    for loc, m in spec.atoms:
        out += np.where(xs >= loc, m, 0.0)
    out = np.clip(out, 0.0, 1.0)
    return out if np.ndim(x) else float(out[0])


@lru_cache(maxsize=256)
def _segments(spec: MeasureSpec) -> tuple[np.ndarray, list[tuple]]:
    """Mass-ordered segments of the CDF for generalized inversion.

    Returns the cumulative-mass start of each segment plus a per-segment
    descriptor: ("atom", x) or ("cont", a, b, c0, c1, mass).
    """
    atom_at = dict(spec.atoms)
    breaks = sorted({0.0, 1.0} | {p[0] for p in spec.pieces} | {p[1] for p in spec.pieces} | set(atom_at))
    segs: list[tuple] = []
    starts: list[float] = []
    cum = 0.0
    for j, x in enumerate(breaks):
        m = atom_at.get(x, 0.0)
        if m > 0.0:
            starts.append(cum)
            segs.append(("atom", x))
            cum += m
        if j + 1 < len(breaks):
            a, b = x, breaks[j + 1]
            mid = 0.5 * (a + b)
            for plo, phi, c0, c1 in spec.pieces:
                if plo <= mid <= phi:
                    mass = c0 * (b - a) + 0.5 * c1 * (b * b - a * a)
                    if mass > 0.0:
                        starts.append(cum)
                        segs.append(("cont", a, b, c0, c1, mass))
                        cum += mass
                    break
    return np.asarray(starts, dtype=float), segs


def quantile(spec: MeasureSpec, u: np.ndarray | float) -> np.ndarray | float:
    """Generalized inverse CDF; exact per-piece quadratic inversion.

    The input is validated once, then inverted _BLOCK values at a time
    into one output array.  The inversion works in place, in the output
    block and in scratch buffers of one block taken once per call, so
    its working set stays in cache however many values are asked for.
    Each value's arithmetic does not depend on the blocking.
    """
    starts, segs = _segments(spec)
    us = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((us >= 0.0) & (us < 1.0 + _MASS_TOL)):  # also rejects NaN
        raise ValueError("quantile arguments must lie in [0, 1)")
    flat = us.reshape(-1)
    out = np.empty(flat.shape)
    size = min(flat.size, _BLOCK)
    work = np.empty(size)
    # a single segment needs no segment index, mask or gathered copy
    picks = None if len(segs) == 1 else (np.empty(size), np.empty(size, dtype=bool))
    for lo in range(0, flat.size, _BLOCK):
        _invert_block(starts, segs, flat[lo : lo + _BLOCK], out[lo : lo + _BLOCK], work, picks)
    return out.reshape(us.shape) if np.ndim(u) else float(out[0])


def _invert_block(
    starts: np.ndarray,
    segs: list[tuple],
    us: np.ndarray,
    out: np.ndarray,
    work: np.ndarray,
    picks: tuple[np.ndarray, np.ndarray] | None,
) -> None:
    """out = quantile at us, one CDF segment at a time; `work` and
    `picks` (a float and a bool buffer) are scratch of at least len(us)."""
    if picks is None:
        np.subtract(us, starts[0], out=out)
        _invert_segment(segs[0], out, work[: len(us)])
        return
    gathered, mask = (buf[: len(us)] for buf in picks)
    idx = np.searchsorted(starts, us, side="right")
    idx -= 1
    np.clip(idx, 0, len(segs) - 1, out=idx)
    for k, seg in enumerate(segs):
        np.equal(idx, k, out=mask)
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        if seg[0] == "atom":
            out[mask] = seg[1]
            continue
        t = np.compress(mask, us, out=gathered[:count])
        t -= starts[k]
        _invert_segment(seg, t, work[:count])
        out[mask] = t


def _invert_segment(seg: tuple, t: np.ndarray, work: np.ndarray) -> None:
    """Replace each mass offset t into segment `seg` by its quantile, in
    place; `work` is float scratch of t's length."""
    if seg[0] == "atom":
        t.fill(seg[1])
        return
    _, a, b, c0, c1, _mass = seg
    if abs(c1) < 1e-14:
        t /= c0
        t += a
        np.clip(t, a, b, out=t)
        return
    # solve (c1/2)(x^2 - a^2) + c0(x - a) = t for x in [a, b].  The CDF
    # is nondecreasing on the piece, so the increasing-branch root applies
    # for either sign of c1: x = 2K / (c0 + root), cancellation-free, and
    # (root - c0) / c1 where c0 + root is within 1e-300 of 0
    A = 0.5 * c1
    t += A * a * a + c0 * a  # K
    np.multiply(t, 4.0 * A, out=work)
    work += c0 * c0
    np.maximum(work, 0.0, out=work)
    np.sqrt(work, out=work)  # root
    work += c0  # denominator
    # root >= 0, so the denominator can vanish only where c0 <= 1e-300
    rare = np.flatnonzero(np.abs(work) <= 1e-300) if c0 <= 1e-300 else ()
    if len(rare):
        root = np.sqrt(np.maximum(c0 * c0 + 4.0 * A * t[rare], 0.0))
        near = (-c0 + root) / (2.0 * A)
        work[rare] = 1.0
    t *= 2.0
    t /= work
    if len(rare):
        t[rare] = near
    np.clip(t, a, b, out=t)


def sample(
    spec: MeasureSpec, rng: np.random.Generator, size: int | None = None
) -> np.ndarray | float:
    """Inverse-CDF draws from spec using the caller-owned generator."""
    return quantile(spec, rng.random(size))


def reflect(spec: MeasureSpec) -> MeasureSpec:
    """Push-forward under x -> 1 - x."""
    pieces = tuple(
        sorted((1.0 - hi, 1.0 - lo, c0 + c1, -c1) for lo, hi, c0, c1 in spec.pieces)
    )
    atoms = tuple(sorted((1.0 - x, m) for x, m in spec.atoms))
    return MeasureSpec(pieces=pieces, atoms=atoms, label=f"reflect({spec.label})")


def to_dict(spec: MeasureSpec) -> dict:
    return {
        "pieces": [list(p) for p in spec.pieces],
        "atoms": [list(a) for a in spec.atoms],
        "label": spec.label,
    }


def from_dict(doc: dict) -> MeasureSpec:
    return MeasureSpec(
        pieces=tuple(tuple(p) for p in doc.get("pieces", [])),
        atoms=tuple(tuple(a) for a in doc.get("atoms", [])),
        label=str(doc.get("label", "")),
    )


def to_json(spec: MeasureSpec) -> str:
    """Round-trips float64 values bit-exactly (shortest-repr floats)."""
    return json.dumps(to_dict(spec))


def from_json(text: str) -> MeasureSpec:
    return from_dict(json.loads(text))
