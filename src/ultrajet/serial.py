"""File formats: JSON specs in, JSON/CSV/NPY reports out.

Sequence specs: {"family": "gevrey"|"qgevrey"|"powerlog"|"table",
                 "params": {...}, "K": int}
Weight functions: {"kind": "omega_s", "s": s} or
                  {"kind": "table", "points": [[t, w], ...]}
Matrices: a weight-function spec plus "params"/"K", or
          {"kind": "rows", "rows": [seq-spec, ...], "params": [...]}
Jets: {"points": [...], "intervals": [[a,b], ...], "order_cap": p,
       "values": [[...], ...]} (values row-aligned with carried points).

Spline tables (``extension_spline.npy``): one float64 array in NumPy's
``.npy`` format, shape (pieces, 2 + D + 1) with D the spline's largest row
degree, columns ``left, right, c0..c{D}``; row i is sum_j c_j (x - left)^j
on [left, right].  The piece index is the row number, each row's own degree
is its last nonzero column, and the cells past it hold 0.0.  Read it with
``np.load(path)``; the breakpoints are ``t[:, 0]`` followed by ``t[-1, 1]``
and the coefficients ``t[:, 2:]``.  The values are the spline's own floats,
bit for bit.
Probe tables (``probes.csv``): one line per probe x,
``x,d,f0..f{p}`` with d the distance from x to E and f{k} = f^(k)(x).
Sequence tables are logs only, since rows built from weight functions leave
double range: ``sequence.csv`` is ``k,logM,log_mu,log_m`` (m_k = M_k / k!)
for k = 0..K, and ``descendant.csv`` is
``k,log_nu,log_tau,log_sigma,log_sigma_star,log_s`` for k = 1..K_eff.

Writes are atomic (temp file + rename) and deterministic for a fixed spec.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile

import numpy as np

from .errors import JetSpecError, SequenceSpecError
from .jets import CompactSet1D, Jet, sample_jet
from .seqcalc import WeightSequence, make_sequence
from .weightfunc import (DEFAULT_PARAMS, WeightFunction, WeightMatrix,
                         associated_matrix, matrix_from_rows, omega_s,
                         omega_table)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _atomic_write(path: str, write) -> None:
    """write(fh) into a binary temp file beside path, then rename it over path.

    The file gets mode 0666 less the umask, as ``open`` would give it, not
    the owner-only mode of the temp file."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path: str, text: str) -> None:
    """text, UTF-8 encoded, as the whole file at path."""
    _atomic_write(path, lambda fh: fh.write(text.encode()))


def write_spline(path: str, pp) -> None:
    """The spline table of ``pp`` as one ``.npy`` file (no pickles)."""
    b = pp.breakpoints
    table = np.column_stack([b[:-1], b[1:], pp.coeffs])
    _atomic_write(path, lambda fh: np.save(fh, table, allow_pickle=False))


def dump_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1,
                                       default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


CSV_BLOCK_ROWS = 256   # rows per formatting pass: bounds the per-value strings held


def write_csv(path: str, columns: dict) -> None:
    """Header, then one line per row.  Integer columns print as ``str``,
    every other column (bool included) as the shortest round-trip ``repr``
    of its float values."""
    atomic_write_text(path, "".join(_csv_blocks(columns)))


def _csv_blocks(columns: dict):
    """The CSV text in pieces of CSV_BLOCK_ROWS rows; each column of a piece
    is formatted in one pass."""
    cols = [(str, c) if c.dtype.kind in "iu" else (repr, c.astype(float, copy=False))
            for c in map(np.atleast_1d, columns.values())]
    yield ",".join(columns) + "\n"
    for lo in range(0, min((len(c) for _, c in cols), default=0), CSV_BLOCK_ROWS):
        block = [map(fmt, c[lo:lo + CSV_BLOCK_ROWS].tolist()) for fmt, c in cols]
        yield "\n".join(map(",".join, zip(*block))) + "\n"


# -- spec loaders ---------------------------------------------------------------

def _spec_object(spec, error=SequenceSpecError) -> dict:
    """``spec`` itself when it is a JSON object, else ``error`` BAD_SPEC."""
    if not isinstance(spec, dict):
        raise error(f"a spec must be a JSON object, got {spec!r:.60}",
                    code="BAD_SPEC")
    return spec


@contextlib.contextmanager
def _bad_spec(what: str, error=SequenceSpecError):
    """Raises ``error`` BAD_SPEC for a KeyError, TypeError or ValueError
    (a missing or malformed field) raised inside the block."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"bad {what} spec: {type(exc).__name__} {exc}",
                    code="BAD_SPEC") from exc


def weight_function_from_spec(spec: dict) -> WeightFunction:
    kind = _spec_object(spec).get("kind")
    with _bad_spec(kind):
        if kind == "omega_s":
            return omega_s(float(spec["s"]))
        if kind == "table":
            return omega_table(spec["points"])
    raise SequenceSpecError(f"unknown weight function kind {kind!r}",
                            code="NON_POSITIVE")


def matrix_from_spec(spec: dict, K_default: int = 512):
    """Returns (matrix, weight_function_or_None); SequenceSpecError BAD_SPEC
    for a missing or malformed ``K``, ``rows`` or ``params``."""
    kind = _spec_object(spec).get("kind")
    with _bad_spec("matrix"):
        K = int(spec.get("K", K_default))
        params = spec.get("params", None if kind == "rows" else DEFAULT_PARAMS)
        params = None if params is None else [float(p) for p in params]
        rows = [make_sequence(s, K=K) for s in spec["rows"]] if kind == "rows" else None
    if rows is not None:
        return matrix_from_rows(rows, params=params), None
    w = weight_function_from_spec(spec)
    return associated_matrix(w, params=params, K=K), w


def jet_from_file(spec: dict, p_default: int = 16) -> Jet:
    """A builtin jet (``kind``, no ``values``) or a table jet (``values`` and
    ``order_cap``); JetSpecError BAD_SPEC when the spec is not an object,
    lacks these fields, or has a malformed ``points``, ``intervals`` or
    ``order_cap``."""
    spec = _spec_object(spec, JetSpecError)
    with _bad_spec("jet", JetSpecError):
        E = CompactSet1D(points=tuple(spec.get("points", ())),
                         intervals=tuple(tuple(iv) for iv in spec.get("intervals", ())))
        p = int(spec.get("order_cap", p_default))
    if "kind" in spec and "values" not in spec:
        return sample_jet(spec, E, p_max=p)
    if "values" not in spec or "order_cap" not in spec:
        raise JetSpecError("a jet file needs a kind, or values and order_cap",
                           code="BAD_SPEC")
    return Jet(E, p, spec["values"])


# -- canned exports ---------------------------------------------------------------

def sequence_csv_columns(M: WeightSequence) -> dict:
    return {"k": np.arange(M.K + 1), "logM": M.log_M,
            "log_mu": np.concatenate([[0.0], M.log_mu]), "log_m": M.log_m_small}


def matrix_csv_columns(mat: WeightMatrix) -> dict:
    cols = {"k": np.arange(mat.K + 1)}
    for p, row in zip(mat.params, mat.rows):
        cols[f"logW[x={p:g}]"] = row.log_M
    return cols


def descendant_csv_columns(N: WeightSequence, D) -> dict:
    return {"k": np.arange(1, D.K_eff + 1), "log_nu": N.log_mu[: D.K_eff],
            "log_tau": D.log_tau, "log_sigma": D.log_sigma,
            "log_sigma_star": D.log_sigma_star, "log_s": D.small_s.log_M[1:]}
