"""File formats.

No other module of the package knows a file's layout.  Everything here is
deliberately plain: JSON for camera models, poses, pose estimates and
rectification setups; CSV for correspondences; binary Netpbm (16-bit P5
PGM, P4 PBM) for sub-aperture images and their validity masks.  All writers
format floats with ``repr`` (shortest round-trip form) and use LF line
endings, so identical inputs produce byte-identical files on every
platform.

Mask polarity: in PBM files a 1 bit is black.  Black marks INVALID pixels;
white (0) marks pixels that carry data.

A rendered or resampled light field is stored as a directory::

    sai_r{row}_c{col}.pgm    sub-aperture image, 16-bit grayscale
    sai_r{row}_c{col}.pbm    validity mask (black = invalid)
    grid.json                sub-aperture coordinates, pixel->slope mapping,
                             and (for rectified output) the aligned-grid
                             provenance

Files with equal contents in one directory may be hard links of each other
(all unrendered sub-apertures, for example, share one image and one mask).
Every writer here replaces a regular file, never editing it in place
(:func:`_write_bytes`), so a hard-linked copy of any output keeps its
bytes; a symlink or device is written through.  A tool that edits one of
these files in place changes its twins too.  ``cp -r`` copies contents.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import os
import re
import stat
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .bench import BenchResult, BenchRow, BenchSpec, bench_csv_lines, bench_dat_lines
from .errors import ConfigError
from .geometry import LFIntrinsics, RelativePose, euler_xyz_intrinsic
from .pose import CorrespondenceSet, EstimationResult
from .rectify import RectifiedSetup
from .resample import AlignedGrid, SampledLF, SpatialMapping, _check_regular
from .simulate import BoardSpec, SimConfig, default_intrinsics_pair

__all__ = [
    "load_json",
    "save_json",
    "load_intrinsics",
    "save_intrinsics",
    "load_pose",
    "save_pose",
    "save_estimate",
    "load_setup",
    "save_setup",
    "CORRESPONDENCE_HEADER",
    "write_correspondence_csv",
    "write_bench_tables",
    "read_correspondence_csv",
    "write_pgm16",
    "read_pgm16",
    "write_pbm",
    "read_pbm",
    "LF_FILE_NAME",
    "save_sai_stream",
    "save_sampled_lf",
    "load_sampled_lf",
    "parse_pose_dict",
    "parse_sim_config",
    "load_sim_config",
    "parse_bench_spec",
    "load_bench_spec",
]


@contextmanager
def _naming(source, key=None):
    """Turn a failure to read, decode or use ``source`` (a file, or the
    value of its ``key``) into a ConfigError that names the file and the
    key; a KeyError reads "missing key 'x'"."""
    try:
        yield
    except (OSError, KeyError, ValueError, TypeError, OverflowError, csv.Error) as e:
        msg = getattr(e, "strerror", None) or e
        if isinstance(e, KeyError):
            msg = f"missing key {e.args[0]!r}"
        where = source if key is None else f"{source}: {key}"
        raise ConfigError(f"{where}: {msg}") from e


def _read_text(path: Path) -> str:
    """The text of ``path``; a file that cannot be read or decoded raises
    ConfigError naming it."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def load_json(path) -> dict:
    """Read a JSON file, turning syntax errors into ConfigError with the
    offending line and column."""
    path = Path(path)
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return data


def _json_bytes(data: dict) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def save_json(path, data: dict):
    _write_bytes(path, [_json_bytes(data)])


def _floats(obj, names) -> dict:
    """Each named array of ``obj`` as a flat list of floats, row-major."""
    return {name: [float(x) for x in np.ravel(getattr(obj, name))] for name in names}


def _row_major_doc(obj, names) -> dict:
    """The named arrays of ``obj`` as a document that declares its layout."""
    return {"layout": "row-major", **_floats(obj, names)}


def _row_major(d: dict, kind: str, matrices, vectors) -> dict:
    """The named arrays of a :func:`_row_major_doc` document of ``kind``,
    each of ``matrices`` reshaped to 3x3."""
    if d.get("layout") != "row-major":
        raise ValueError(f"{kind} JSON must declare layout 'row-major'")
    arrays = {name: np.array(d[name], float) for name in matrices + vectors}
    return {**arrays, **{name: arrays[name].reshape(3, 3) for name in matrices}}


def _scalars(cls, d: dict):
    """A dataclass of float fields (LFIntrinsics, SpatialMapping) from the
    document that :func:`dataclasses.asdict` writes for it."""
    return cls(**{f.name: float(d[f.name]) for f in dataclasses.fields(cls)})


def _pose(d: dict) -> RelativePose:
    return RelativePose(**_row_major(d, "pose", ("R",), ("T",)))


_SETUP_MATRICES, _SETUP_VECTORS = ("R_rect", "R_l", "R_r"), ("T_l", "T_r")
_GRID_ARRAYS = ("rows_mm", "cols_mm", "left_cols_mm", "right_cols_mm")


def load_intrinsics(path) -> LFIntrinsics:
    with _naming(path):
        return _scalars(LFIntrinsics, load_json(path))


def save_intrinsics(path, k: LFIntrinsics):
    save_json(path, dataclasses.asdict(k))


def load_pose(path) -> RelativePose:
    """Read a pose file, or the estimate file that ``lfrect estimate``
    writes, whose extra keys are ignored."""
    with _naming(path):
        return _pose(load_json(path))


def save_pose(path, pose: RelativePose):
    save_json(path, _row_major_doc(pose, ("R", "T")))


def save_estimate(path, result: EstimationResult):
    """Write a pose estimate: its pose document plus the solver's
    diagnostics."""
    save_json(path, {
        **_row_major_doc(result.pose, ("R", "T")),
        "initial_cost": result.initial_cost,
        "final_cost": result.final_cost,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "refined": bool(result.refined),
        **_floats(result.linear, ("singular_values",)),
    })


def load_setup(path) -> RectifiedSetup:
    with _naming(path):
        d = load_json(path)
        arrays = _row_major(d, "setup", _SETUP_MATRICES, _SETUP_VECTORS)
        return RectifiedSetup(**arrays, baseline_mm=float(d["baseline_mm"]))


def save_setup(path, setup: RectifiedSetup):
    doc = _row_major_doc(setup, _SETUP_MATRICES + _SETUP_VECTORS)
    save_json(path, {**doc, "baseline_mm": float(setup.baseline_mm)})


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------

CORRESPONDENCE_HEADER = ["u_c", "v_c", "lambda", "u_c_prime", "v_c_prime", "lambda_prime"]


def write_correspondence_csv(path, corr: CorrespondenceSet):
    pairs = np.hstack([corr.first, corr.second])
    lines = itertools.chain([CORRESPONDENCE_HEADER], (map(repr, row.tolist()) for row in pairs))
    _write_bytes(path, (",".join(cells).encode() + b"\n" for cells in lines))


def write_bench_tables(path, result: BenchResult):
    """Write a sweep's summary table to ``path`` (CSV) and its ``.dat`` twin."""
    path, dat = Path(path), Path(path).with_suffix(".dat")
    for out, lines in ((path, bench_csv_lines(result)), (dat, bench_dat_lines(result))):
        _write_bytes(out, (f"{line}\n".encode() for line in lines))


def read_correspondence_csv(path, k1: LFIntrinsics, k2: LFIntrinsics) -> CorrespondenceSet:
    """Read LF-point pairs; the intrinsics give the set its camera models.

    Rows whose fields are all blank are skipped.  A file without quotes
    whose data rows are all six numbers is converted by one ``np.loadtxt``
    pass; any other file (quoted fields, whitespace or blank-field rows,
    bad rows, no data rows) is tokenized by ``csv.reader`` and converted
    row by row, a bad row raising ConfigError that names its line
    (numbered from 2, the line after the header).  Both conversions round
    each field as ``float`` does."""
    path = Path(path)
    text = _read_text(path)
    pairs = _plain_csv_pairs(text)
    if pairs is None:
        pairs = _csv_pairs(path, text)
    with _naming(path):
        return CorrespondenceSet(first=pairs[:, :3], second=pairs[:, 3:], k1=k1, k2=k2)


def _plain_csv_pairs(text: str) -> np.ndarray | None:
    """The (n, 6) pairs of a correspondence CSV without quotes, whose
    records are then its lines, or None if the C-level parse rejects it."""
    head, _, body = text.partition("\n")
    if '"' in text or [c.strip() for c in head.split(",")] != CORRESPONDENCE_HEADER:
        return None
    if not body or body.isspace():  # no data rows, which np.loadtxt warns about
        return None
    try:
        pairs = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return pairs if pairs.shape[1] == 6 else None


def _csv_pairs(path: Path, text: str) -> np.ndarray:
    """The (n, 6) pairs of any correspondence CSV, by ``csv.reader``; a
    record that ``csv`` cannot tokenize (say, a field over its size limit)
    is named by its line, as a bad row is."""
    rows = csv.reader(io.StringIO(text))
    with _naming(f"{path}:1"):
        header = next(rows, [])
    if [c.strip() for c in header] != CORRESPONDENCE_HEADER:
        raise ConfigError(f"{path}: first line must be '{','.join(CORRESPONDENCE_HEADER)}'")
    pairs = []
    for lineno in itertools.count(2):
        with _naming(f"{path}:{lineno}"):
            row = next(rows, None)
            if row is None:
                break
            if not "".join(row).strip():
                continue
            if len(row) != 6:
                raise ValueError(f"expected 6 columns, got {len(row)}")
            pairs.append(list(map(float, row)))
    return np.array(pairs, float).reshape(-1, 6)


# --------------------------------------------------------------------------
# Netpbm images
# --------------------------------------------------------------------------


def _pgm16_bytes(image: np.ndarray) -> bytes:
    """16-bit binary PGM (big-endian sample order) of a [0, 1] image;
    values outside [0, 1] are clipped, and a non-finite pixel is refused."""
    img = np.asarray(image, float)
    if img.ndim != 2:
        raise ValueError("image must be 2D")
    if not np.isfinite(img).all():
        raise ValueError("image pixels must be finite")
    data = np.round(np.clip(img, 0.0, 1.0) * 65535.0).astype(">u2")
    h, w = img.shape
    return f"P5\n{w} {h}\n65535\n".encode("ascii") + data.tobytes()


def _pbm_bytes(valid_mask: np.ndarray) -> bytes:
    """Binary PBM of a validity mask: black bits (1) mark invalid pixels."""
    valid = np.asarray(valid_mask, bool)
    if valid.ndim != 2:
        raise ValueError("mask must be 2D")
    h, w = valid.shape
    bits = np.packbits((~valid).astype(np.uint8), axis=1)
    return f"P4\n{w} {h}\n".encode("ascii") + bits.tobytes()


def write_pgm16(path, image: np.ndarray):
    """Write a [0, 1] image to ``path`` as a 16-bit PGM."""
    _write_bytes(path, [_pgm16_bytes(image)])


# A Netpbm header: the magic, whitespace-separated tokens with '#' comments
# (each runs to the end of its line, so the pattern parses only one way),
# and the single whitespace byte that ends the header.
_PNM_SEP = rb"(?:\s|#[^\n\r]*(?![^\n\r]))"
_PNM_TOKEN = rb"([^\s#]+)"


def _pnm_header(magic: bytes, count: int) -> re.Pattern:
    rest = (_PNM_SEP + b"+" + _PNM_TOKEN) * (count - 1)
    return re.compile(magic + _PNM_SEP + b"*" + _PNM_TOKEN + rest + rb"[\s#]")


_PGM_HEADER = _pnm_header(b"P5", 3)
_PBM_HEADER = _pnm_header(b"P4", 2)


def _pnm_fields(header: re.Pattern, raw: bytes, kind: str) -> tuple[list[int], int]:
    """The integer header tokens of a Netpbm file and the offset of its
    data."""
    m = header.match(raw)
    if m is None:
        if raw[:2] != header.pattern[:2]:
            raise ValueError(f"not a binary {kind}")
        raise ValueError("truncated Netpbm header")
    return [int(t) for t in m.groups()], m.end()


def _check_size(w: int, h: int, out: np.ndarray | None):
    """Refuse a w x h image for an ``out`` of another shape, which numpy
    would otherwise fill by broadcasting one row or column."""
    if out is not None and out.shape != (h, w):
        raise ValueError(f"{w}x{h} pixels, expected {out.shape[1]}x{out.shape[0]}")


def _decode_pgm16(raw: bytes, out: np.ndarray | None = None) -> np.ndarray:
    """A binary PGM as a float image scaled to [0, 1], into ``out`` if
    given, which must have the image's shape."""
    (w, h, maxval), offset = _pnm_fields(_PGM_HEADER, raw, "PGM")
    if not (0 < maxval < 65536):
        raise ValueError(f"bad maxval {maxval}")
    _check_size(w, h, out)
    dtype = ">u2" if maxval > 255 else np.uint8
    data = np.frombuffer(raw, dtype=dtype, count=w * h, offset=offset)
    return np.divide(data.reshape(h, w), maxval, out=out)


def read_pgm16(path) -> np.ndarray:
    """Read a binary PGM into a float image scaled to [0, 1]."""
    return _decode_pgm16(Path(path).read_bytes())


def write_pbm(path, valid_mask: np.ndarray):
    """Write a validity mask to ``path`` as a PBM."""
    _write_bytes(path, [_pbm_bytes(valid_mask)])


def _decode_pbm(raw: bytes, out: np.ndarray | None = None) -> np.ndarray:
    """A binary PBM as a validity mask (True = valid), into ``out`` if
    given, which must have the mask's shape."""
    (w, h), offset = _pnm_fields(_PBM_HEADER, raw, "PBM")
    _check_size(w, h, out)
    row_bytes = (w + 7) // 8
    data = np.frombuffer(raw, dtype=np.uint8, count=h * row_bytes, offset=offset)
    bits = np.unpackbits(data.reshape(h, row_bytes), axis=1)[:, :w]
    return np.equal(bits, 0, out=out)


def read_pbm(path) -> np.ndarray:
    """Read a binary PBM back into a validity mask (True = valid)."""
    return _decode_pbm(Path(path).read_bytes())


# --------------------------------------------------------------------------
# Light-field directories
# --------------------------------------------------------------------------


# The name of each file that a light-field directory holds.
LF_FILE_NAME = re.compile(r"grid\.json|sai_r\d+_c\d+\.p[gb]m")


def _listing(d: str) -> dict[str, bool]:
    """Whether each entry of directory ``d`` is a regular file, by name,
    from one ``os.scandir`` pass (no ``lstat`` per entry where the
    filesystem reports entry types)."""
    with os.scandir(d) as entries:
        return {e.name: e.is_file(follow_symlinks=False) for e in entries}


def _unlink_regular(path, listing: dict[str, bool] | None = None) -> bool:
    """Remove ``path`` if it is a regular file, so that the next write
    creates it anew; return whether the name is now free.  ``listing`` is
    the :func:`_listing` of its directory, which drops a name freed here;
    without one, ``os.lstat`` tells.  Symlinks and special files are left
    in place, to be written through."""
    try:
        if listing is None:
            regular = stat.S_ISREG(os.lstat(path).st_mode)
        else:
            regular = listing.get(os.path.basename(path))
            if regular is None:
                return True
        if not regular:
            return False
        os.unlink(path)
    except FileNotFoundError:
        pass
    if listing is not None:
        del listing[os.path.basename(path)]
    return True


def _write_bytes(path, chunks, listing: dict[str, bool] | None = None):
    """Write the bytes ``chunks`` to ``path`` by lfrect's one write rule: a
    regular file there is removed and created anew, so its hard links keep
    their bytes (and ext4 does not stall flushing a file truncated just
    after it was written); a symlink or device is written through."""
    _unlink_regular(path, listing)
    with open(path, "wb") as f:
        f.writelines(chunks)


def _save_shared(
    path: str, data: bytes, key: bytes, made: dict[bytes, str], listing: dict[str, bool]
):
    """Replace ``path`` with ``data``, as a hard link to an earlier file of
    this save when one holds the same bytes.

    ``key`` is the SHA-256 digest of ``data``, and ``made`` maps the digest
    of a content to a regular file that this save created with it; only
    such files are linked to.  Where ``os.link`` fails (no hard links on
    the filesystem, too many links) the bytes are written, and the new file
    serves the later twins.  ``listing`` is as for :func:`_unlink_regular`."""
    if _unlink_regular(path, listing):  # not a symlink or device, which is written through
        if key in made:
            try:
                os.link(made[key], path)
                return
            except OSError:
                pass
        made[key] = path
    _write_bytes(path, [data], listing)


def save_sai_stream(
    dirpath, sais, t_mm, s_mm, mapping: SpatialMapping, size, grid: AlignedGrid | None = None,
    setup: RectifiedSetup | None = None,
):
    """Write a light field that arrives one sub-aperture at a time, as one
    PGM + PBM per sub-aperture plus grid.json.

    ``sais`` yields ``(row, col, image, mask)`` in row-major order, each
    image and mask of ``size`` (H, W), on the grid of ``t_mm`` rows by
    ``s_mm`` columns; a cell that is never yielded is blank (all-zero
    image, all-invalid mask).  Only the sub-aperture in hand is encoded,
    so the writer never holds the whole light field.  Files with equal
    contents are written once and hard-linked, since creating a file
    costs far more than linking one.  The directory is listed once, and
    the blank sub-aperture is encoded and hashed once per save; all blank
    sub-apertures share one image and one mask.  ``grid`` attaches
    aligned-grid provenance (which side each rectified sub-aperture came
    from) when saving rectified output, and ``setup`` is saved as
    setup.json.  An old grid.json is removed first and the new one written
    last, after setup.json, so a directory without it was not finished.
    """
    import hashlib  # deferred: it loads OpenSSL, which only this writer needs

    def encode(image, mask) -> list[tuple[bytes, bytes]]:
        """The PGM and PBM of one sub-aperture, each with its digest."""
        files = _pgm16_bytes(image), _pbm_bytes(mask)
        return [(data, hashlib.sha256(data).digest()) for data in files]

    d = os.fspath(dirpath)
    os.makedirs(d, exist_ok=True)
    listing = _listing(d)
    meta_path = os.path.join(d, "grid.json")
    _unlink_regular(meta_path, listing)  # an old one would mark a half-written rewrite finished
    made = {}
    size = tuple(size)
    n_cols = len(s_mm)
    n_cells = len(t_mm) * n_cols
    blank = encode(np.zeros(size), np.zeros(size, bool))

    def save(cell, files):
        i, j = divmod(cell, n_cols)
        for ext, (data, key) in zip(("pgm", "pbm"), files):
            _save_shared(os.path.join(d, f"sai_r{i}_c{j}.{ext}"), data, key, made, listing)

    cell = 0  # the next cell in row-major order
    for i, j, image, mask in sais:
        k = i * n_cols + j
        if not (0 <= j < n_cols and cell <= k < n_cells):
            raise ValueError(f"sub-aperture ({i}, {j}) is out of row-major order or off the grid")
        if np.shape(image) != size or np.shape(mask) != size:
            raise ValueError(f"sub-aperture ({i}, {j}) is not {size[1]}x{size[0]} pixels")
        for c in range(cell, k):
            save(c, blank)
        save(k, encode(image, mask) if mask.any() or image.any() else blank)
        cell = k + 1
    for c in range(cell, n_cells):
        save(c, blank)
    meta = {
        "rows_mm": [float(x) for x in t_mm],
        "cols_mm": [float(x) for x in s_mm],
        "mapping": dataclasses.asdict(mapping),
        "mask": "pbm-black-is-invalid",
    }
    if grid is not None:
        meta["aligned"] = {**_floats(grid, _GRID_ARRAYS), "provenance": grid.provenance.tolist()}
    if setup is not None:
        save_setup(os.path.join(d, "setup.json"), setup)
    _write_bytes(meta_path, [_json_bytes(meta)], listing)


def save_sampled_lf(dirpath, lf: SampledLF, grid: AlignedGrid | None = None):
    """Write a dense light field through :func:`save_sai_stream`."""
    sais = ((i, j, lf.images[i, j], lf.mask[i, j]) for i, j in np.ndindex(lf.n_rows, lf.n_cols))
    save_sai_stream(dirpath, sais, lf.t_mm, lf.s_mm, lf.mapping, (lf.height, lf.width), grid)


def load_sampled_lf(dirpath) -> tuple[SampledLF, AlignedGrid | None]:
    """Read a light-field directory; a file that cannot be read, decoded or
    fitted to grid.json, or whose size is not the first image's, raises
    ConfigError naming it.  A missing ``.pbm`` sidecar means every pixel of
    its image is valid.  grid.json is checked first, its ``rows_mm`` and
    ``cols_mm`` as regular, finite lattices, before any image is listed or
    read.  Nothing is allocated until every image that grid.json names is
    listed and ``sai_r0_c0.pgm`` has decoded, as its shape (not its
    header) sizes the arrays that the rest decode into."""
    d = os.fspath(dirpath)
    meta_path = os.path.join(d, "grid.json")
    meta = load_json(meta_path)
    with _naming(meta_path):
        t_mm = np.array(meta["rows_mm"], float)
        s_mm = np.array(meta["cols_mm"], float)
        if t_mm.size == 0 or s_mm.size == 0:
            raise ConfigError(f"{d}: no sub-aperture images")
        _check_regular(t_mm, "rows_mm")  # before any image is listed or read
        _check_regular(s_mm, "cols_mm")
        mapping = _scalars(SpatialMapping, meta["mapping"])
        grid = None
        if "aligned" in meta:  # AlignedGrid checks and casts the entries itself
            grid = AlignedGrid(**{n: meta["aligned"][n] for n in _GRID_ARRAYS + ("provenance",)})
    nr, nc = t_mm.size, s_mm.size
    with _naming(d):
        listing = _listing(d)
    for i, j in np.ndindex(nr, nc):
        if f"sai_r{i}_c{j}.pgm" not in listing:
            raise ConfigError(f"{os.path.join(d, f'sai_r{i}_c{j}.pgm')}: no such file")
    images = mask = None
    for i, j in np.ndindex(nr, nc):
        stem = os.path.join(d, f"sai_r{i}_c{j}")
        with _naming(stem + ".pgm"):
            raw = Path(stem + ".pgm").read_bytes()
            if images is None:  # the first image
                first = _decode_pgm16(raw)
                images = np.empty((nr, nc, *first.shape))
                mask = np.ones(images.shape, bool)
                images[i, j] = first
            else:
                _decode_pgm16(raw, out=images[i, j])
        if f"sai_r{i}_c{j}.pbm" in listing:
            with _naming(stem + ".pbm"):
                _decode_pbm(Path(stem + ".pbm").read_bytes(), out=mask[i, j])
    return SampledLF(images=images, mask=mask, s_mm=s_mm, t_mm=t_mm, mapping=mapping), grid


# --------------------------------------------------------------------------
# Simulation configs and sweep specs
# --------------------------------------------------------------------------


def _integer(value) -> int:
    """``int(value)``, refusing a bool or a value that the conversion
    changes (13.7, "13"); an integral float such as 100.0 passes."""
    n = int(value)
    if isinstance(value, bool) or n != value:
        raise ValueError(f"expected an integer, got {value}")
    return n


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def parse_pose_dict(d: dict) -> RelativePose:
    """A pose either as Euler angles or as an explicit row-major matrix.

    ``{"euler_deg": [ax, ay, az], "T_mm": [x, y, z]}`` applies the
    rotations about x, then y, then z (intrinsic axes, degrees), or
    ``{"layout": "row-major", "R": [...9...], "T": [...]}`` gives the
    matrix directly.
    """
    if "euler_deg" in _json_object(d):
        return _euler_pose(d["euler_deg"], d.get("T_mm", d.get("T", [0.0, 0.0, 0.0])))
    return _pose(d)


def _euler_pose(euler_deg, T) -> RelativePose:
    """A pose, or a board placement, from its ``euler_deg`` and translation."""
    ang = [float(x) for x in euler_deg]
    if len(ang) != 3:
        raise ValueError("euler_deg needs exactly three angles")
    return RelativePose(euler_xyz_intrinsic(*ang), np.array(T, float))


_BOARD_FIELDS = {"rows": _integer, "cols": _integer, "spacing_mm": float}
_SIM_FIELDS = {
    "sai_rows": _integer, "sai_cols": _integer, "sigma_px": float,
    "trials": _integer, "seed": _integer,
}


def _present(d: dict, fields: dict) -> dict:
    """The entries of ``fields`` that ``d`` sets, each cast to its type;
    absent ones keep the dataclass defaults."""
    return {name: cast(d[name]) for name, cast in fields.items() if name in d}


# Config key -> (SimConfig field, parser of the key's JSON value).
_SIM_KEYS = {
    "intrinsics1": ("k1", lambda v: _scalars(LFIntrinsics, v)),
    "intrinsics2": ("k2", lambda v: _scalars(LFIntrinsics, v)),
    "pose": ("pose", parse_pose_dict),
    "board": ("board", lambda v: BoardSpec(**_present(_json_object(v), _BOARD_FIELDS))),
    "board_poses": ("board_poses", lambda v: tuple(_euler_pose(b["euler_deg"], b["center_mm"]) for b in v)),
    **{key: (key, cast) for key, cast in _SIM_FIELDS.items()},
}


def parse_sim_config(data: dict, source: str = "<config>") -> SimConfig:
    """Build a SimConfig from a plain dict (see load_sim_config).  Absent keys
    keep the SimConfig and BoardSpec defaults; a bad value raises ConfigError
    naming its key."""
    if "pose" not in data:
        raise ConfigError(f"{source}: missing required key 'pose'")
    k1, k2 = default_intrinsics_pair()
    fields = {"k1": k1, "k2": k2}
    for key, (field, parse) in _SIM_KEYS.items():
        if key in data:
            with _naming(source, key):
                fields[field] = parse(data[key])
    with _naming(source):
        return SimConfig(**fields)


def load_sim_config(path) -> SimConfig:
    """Read a simulation config JSON.

    Recognised keys (all but ``pose`` optional): intrinsics1, intrinsics2,
    pose, board {rows, cols, spacing_mm}, board_poses
    [{euler_deg, center_mm}, ...], sai_rows, sai_cols, sigma_px, trials,
    seed.  Omitted camera models and board placements fall back to the
    benchmark defaults.
    """
    return parse_sim_config(load_json(path), source=str(path))


def _bench_row(row, source: str) -> BenchRow:
    """One row of a sweep spec; a bad ``sigma_px`` or ``label`` is named by
    its own key."""
    sigma_px, label = _json_object(row)["sigma_px"], str(row["label"])
    with _naming(source, "sigma_px"):
        sigma_px = float(sigma_px)
    with _naming(source, "label"):
        label.encode()  # UTF-8 refuses a lone surrogate, which no table could hold
    return BenchRow(label=label, pose=parse_pose_dict(row), sigma_px=sigma_px)


def parse_bench_spec(data: dict, source: str = "<spec>") -> BenchSpec:
    """A custom sweep from a plain dict (see load_bench_spec); a bad value
    raises ConfigError naming its key."""
    with _naming(source, "rows"):
        rows = [_bench_row(row, source) for row in data["rows"]]
    counts = {}
    for key in ("trials", "seed"):
        if key in data:
            with _naming(source, key):
                counts[key] = _integer(data[key])
    name = str(data.get("name", "custom"))
    with _naming(source, "name"):
        name.encode()  # bench prints it; UTF-8 refuses a lone surrogate
    with _naming(source):
        return BenchSpec(name=name, rows=rows, **counts)


def load_bench_spec(path) -> BenchSpec:
    """Read a custom sweep JSON: {"name": ..., "trials": N, "seed": S,
    "rows": [{"label", "euler_deg", "T_mm", "sigma_px"}, ...]}, where a
    row may give its pose in any form that :func:`parse_pose_dict` reads."""
    return parse_bench_spec(load_json(path), source=str(path))
