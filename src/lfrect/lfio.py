"""File formats.

Everything here is deliberately plain: JSON for camera models, poses and
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
``save_sampled_lf`` always replaces a file and never edits one in place, so
rewriting a directory is safe; a tool that edits one of these files in
place changes its twins too.  ``cp -r`` copies contents, not links.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import LFIntrinsics, RelativePose, euler_xyz_intrinsic
from .pose import CorrespondenceSet
from .rectify import RectifiedSetup
from .resample import AlignedGrid, SampledLF, SpatialMapping
from .simulate import (
    BoardPose,
    BoardSpec,
    SimConfig,
    default_intrinsics_pair,
)

__all__ = [
    "load_json",
    "save_json",
    "load_intrinsics",
    "save_intrinsics",
    "load_pose",
    "save_pose",
    "load_setup",
    "save_setup",
    "CORRESPONDENCE_HEADER",
    "write_correspondence_csv",
    "read_correspondence_csv",
    "write_pgm16",
    "read_pgm16",
    "write_pbm",
    "read_pbm",
    "save_sampled_lf",
    "load_sampled_lf",
    "parse_pose_dict",
    "parse_sim_config",
    "load_sim_config",
]


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


def save_json(path, data: dict):
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_intrinsics(path) -> LFIntrinsics:
    with _naming(path):
        return LFIntrinsics.from_json_dict(load_json(path))


def save_intrinsics(path, k: LFIntrinsics):
    save_json(path, k.to_json_dict())


def load_pose(path) -> RelativePose:
    with _naming(path):
        return RelativePose.from_json_dict(load_json(path))


def save_pose(path, pose: RelativePose):
    save_json(path, pose.to_json_dict())


def load_setup(path) -> RectifiedSetup:
    with _naming(path):
        return RectifiedSetup.from_json_dict(load_json(path))


def save_setup(path, setup: RectifiedSetup):
    """Write a rectification setup, replacing a regular file at ``path``
    rather than editing it in place, as :func:`save_sampled_lf` does with
    the light-field directory it usually sits in (a hard-linked copy of
    that directory keeps its old setup); a symlink or device is written
    through."""
    _unlink_regular(Path(path))
    save_json(path, setup.to_json_dict())


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------

CORRESPONDENCE_HEADER = ["u_c", "v_c", "lambda", "u_c_prime", "v_c_prime", "lambda_prime"]


def write_correspondence_csv(path, corr: CorrespondenceSet):
    pairs = np.hstack([corr.first, corr.second])
    with open(path, "w") as f:
        f.write(",".join(CORRESPONDENCE_HEADER) + "\n")
        f.writelines(",".join(map(repr, row.tolist())) + "\n" for row in pairs)


def read_correspondence_csv(path, k1: LFIntrinsics, k2: LFIntrinsics) -> CorrespondenceSet:
    """Read LF-point pairs; the intrinsics give the set its camera models.

    Rows whose fields are all blank are skipped.  A file without quotes
    whose data rows are all six numbers is converted by one ``np.loadtxt``
    pass; any other file (quoted fields, whitespace or blank-field rows,
    bad rows, no data rows) is tokenized by ``csv.reader``, converted in
    one pass and, if that fails, scanned row by row (numbered from 2, the
    line after the header) to name the bad line.  Both conversions round
    each field as ``float`` does."""
    path = Path(path)
    text = _read_text(path)
    pairs = _plain_csv_pairs(text)
    if pairs is None:
        pairs = _csv_pairs(path, text)
    try:
        return CorrespondenceSet(first=pairs[:, :3], second=pairs[:, 3:], k1=k1, k2=k2)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


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
    """The (n, 6) pairs of any correspondence CSV, by ``csv.reader``."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [c.strip() for c in rows[0]] != CORRESPONDENCE_HEADER:
        raise ConfigError(
            f"{path}: first line must be '{','.join(CORRESPONDENCE_HEADER)}'"
        )
    data = [row for row in rows[1:] if "".join(row).strip()]
    try:
        if not {6}.issuperset(map(len, data)):
            raise ValueError("expected 6 columns")
        pairs = np.fromiter(map(float, chain.from_iterable(data)), float, 6 * len(data))
    except ValueError:
        for lineno, row in enumerate(rows[1:], start=2):
            if not "".join(row).strip():
                continue
            if len(row) != 6:
                raise ConfigError(f"{path}:{lineno}: expected 6 columns, got {len(row)}")
            try:
                list(map(float, row))
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: {e}") from e
        raise
    return pairs.reshape(-1, 6)


# --------------------------------------------------------------------------
# Netpbm images
# --------------------------------------------------------------------------


def _pgm16_bytes(image: np.ndarray) -> bytes:
    """16-bit binary PGM (big-endian sample order) of a [0, 1] image."""
    img = np.asarray(image, float)
    if img.ndim != 2:
        raise ValueError("image must be 2D")
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
    """Write a [0, 1] image to ``path`` as a 16-bit PGM, in place: a
    symlink or device there is written through."""
    Path(path).write_bytes(_pgm16_bytes(image))


def _read_pnm_tokens(raw: bytes, count: int):
    """First ``count`` whitespace-separated tokens after the magic,
    honouring '#' comments; returns (tokens, offset past final whitespace)."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise ValueError("truncated Netpbm header")
        c = raw[i:i + 1]
        if c == b"#":
            while i < len(raw) and raw[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j:j + 1].isspace() and raw[j:j + 1] != b"#":
                j += 1
            tokens.append(raw[i:j])
            i = j
    return tokens, i + 1  # single whitespace byte terminates the header


def read_pgm16(path) -> np.ndarray:
    """Read a binary PGM into a float image scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise ValueError("not a binary PGM")
    tokens, offset = _read_pnm_tokens(raw[2:], 3)
    w, h, maxval = (int(t) for t in tokens)
    if not (0 < maxval < 65536):
        raise ValueError(f"bad maxval {maxval}")
    dtype = ">u2" if maxval > 255 else np.uint8
    data = np.frombuffer(raw, dtype=dtype, count=w * h, offset=2 + offset)
    return data.reshape(h, w).astype(float) / maxval


def write_pbm(path, valid_mask: np.ndarray):
    """Write a validity mask to ``path`` as a PBM, in place: a symlink or
    device there is written through."""
    Path(path).write_bytes(_pbm_bytes(valid_mask))


def read_pbm(path) -> np.ndarray:
    """Read a binary PBM back into a validity mask (True = valid)."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P4":
        raise ValueError("not a binary PBM")
    tokens, offset = _read_pnm_tokens(raw[2:], 2)
    w, h = (int(t) for t in tokens)
    row_bytes = (w + 7) // 8
    data = np.frombuffer(raw, dtype=np.uint8, count=h * row_bytes, offset=2 + offset)
    bits = np.unpackbits(data.reshape(h, row_bytes), axis=1)[:, :w]
    return bits == 0


# --------------------------------------------------------------------------
# Light-field directories
# --------------------------------------------------------------------------


def _listing(d: Path) -> dict[str, bool]:
    """Whether each entry of directory ``d`` is a regular file, by name,
    from one ``os.scandir`` pass (no ``lstat`` per entry where the
    filesystem reports entry types)."""
    with os.scandir(d) as entries:
        return {e.name: e.is_file(follow_symlinks=False) for e in entries}


def _unlink_regular(path: Path, listing: dict[str, bool] | None = None) -> bool:
    """Remove ``path`` if it is a regular file, so that the next write
    creates it anew; return whether the name is now free.  ``listing`` is
    the :func:`_listing` of its directory; without one, ``os.lstat`` tells.

    Files in a light-field directory may be hard links of one another, so
    this is what keeps a rewrite from writing through one file into its
    twins.  It also avoids an ext4 stall: truncating a file that was just
    written forces a flush of its data.  Symlinks and special files are
    left in place and written through."""
    try:
        if listing is None:
            regular = stat.S_ISREG(os.lstat(path).st_mode)
        elif path.name in listing:
            regular = listing[path.name]
        else:
            return True
        if not regular:
            return False
        os.unlink(path)
    except FileNotFoundError:
        pass
    return True


def _save_shared(
    path: Path, data: bytes, key: bytes, made: dict[bytes, Path], listing: dict[str, bool]
):
    """Replace ``path`` with ``data``, as a hard link to an earlier file of
    this save when one holds the same bytes.

    ``key`` is the SHA-256 digest of ``data``, and ``made`` maps the digest
    of a content to a regular file that this save created with it; only
    such files are linked to.  Where ``os.link`` fails (no hard links on
    the filesystem, too many links) the bytes are written, and the new file
    serves the later twins.  ``listing`` is the directory's
    :func:`_listing` from before the save."""
    if not _unlink_regular(path, listing):  # a symlink or device: written through
        path.write_bytes(data)
        return
    if key in made:
        try:
            os.link(made[key], path)
            return
        except OSError:
            pass
    path.write_bytes(data)
    made[key] = path


def save_sampled_lf(dirpath, lf: SampledLF, grid: AlignedGrid | None = None):
    """Write a light field as one PGM + PBM per sub-aperture plus grid.json.

    Files with equal contents are written once and hard-linked, since
    creating a file costs far more than linking one.  The directory is
    listed once, and each sub-aperture is encoded on its own, except that
    the blank one (all-zero image, all-invalid mask, as every unrendered
    sub-aperture is) is encoded and hashed once per save; all blank
    sub-apertures share one image and one mask.  ``grid`` attaches
    aligned-grid provenance (which side each rectified sub-aperture came
    from) when saving rectified output.
    """
    import hashlib  # deferred: it loads OpenSSL, which only this writer needs

    def content(data: bytes) -> tuple[bytes, bytes]:
        return data, hashlib.sha256(data).digest()

    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    listing = _listing(d)
    made = {}
    blank = None
    for i in range(lf.n_rows):
        for j in range(lf.n_cols):
            image, mask = lf.images[i, j], lf.mask[i, j]
            if mask.any() or image.any():
                files = content(_pgm16_bytes(image)), content(_pbm_bytes(mask))
            else:
                if blank is None:
                    blank = content(_pgm16_bytes(image)), content(_pbm_bytes(mask))
                files = blank
            for ext, (data, key) in zip(("pgm", "pbm"), files):
                _save_shared(d / f"sai_r{i}_c{j}.{ext}", data, key, made, listing)
    meta = {
        "rows_mm": [float(x) for x in lf.t_mm],
        "cols_mm": [float(x) for x in lf.s_mm],
        "mapping": lf.mapping.to_json_dict(),
        "mask": "pbm-black-is-invalid",
    }
    if grid is not None:
        meta["aligned"] = grid.to_json_dict()
    _unlink_regular(d / "grid.json", listing)
    save_json(d / "grid.json", meta)


@contextmanager
def _naming(path):
    """Turn a failure to read, decode or use ``path`` into a ConfigError
    that names the file."""
    try:
        yield
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"{path}: {getattr(e, 'strerror', None) or e}") from e


def load_sampled_lf(dirpath) -> tuple[SampledLF, AlignedGrid | None]:
    """Read a light-field directory; a file that cannot be read, decoded or
    fitted to grid.json raises ConfigError naming it.  A missing ``.pbm``
    sidecar means every pixel of its image is valid."""
    d = Path(dirpath)
    meta_path = d / "grid.json"
    meta = load_json(meta_path)
    with _naming(meta_path):
        t_mm = np.array(meta["rows_mm"], float)
        s_mm = np.array(meta["cols_mm"], float)
        mapping = SpatialMapping.from_json_dict(meta["mapping"])
        grid = AlignedGrid.from_json_dict(meta["aligned"]) if "aligned" in meta else None
    nr, nc = t_mm.size, s_mm.size
    images = None
    mask = None
    for i in range(nr):
        for j in range(nc):
            pgm, pbm = d / f"sai_r{i}_c{j}.pgm", d / f"sai_r{i}_c{j}.pbm"
            with _naming(pgm):
                img = read_pgm16(pgm)
                if images is None:
                    images = np.empty((nr, nc) + img.shape)
                    mask = np.ones((nr, nc) + img.shape, bool)
                images[i, j] = img
            if pbm.exists():
                with _naming(pbm):
                    mask[i, j] = read_pbm(pbm)
    if images is None:
        raise ConfigError(f"{d}: no sub-aperture images")
    with _naming(meta_path):
        lf = SampledLF(images=images, mask=mask, s_mm=s_mm, t_mm=t_mm, mapping=mapping)
    return lf, grid


# --------------------------------------------------------------------------
# Simulation configs
# --------------------------------------------------------------------------


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
        ang = [float(x) for x in d["euler_deg"]]
        if len(ang) != 3:
            raise ValueError("euler_deg needs exactly three angles")
        T = np.array(d.get("T_mm", d.get("T", [0.0, 0.0, 0.0])), float)
        return RelativePose(euler_xyz_intrinsic(*ang), T)
    return RelativePose.from_json_dict(d)


_BOARD_FIELDS = {"rows": int, "cols": int, "spacing_mm": float}
_SIM_FIELDS = {"sai_rows": int, "sai_cols": int, "sigma_px": float, "trials": int, "seed": int}


def _present(d: dict, fields: dict) -> dict:
    """The entries of ``fields`` that ``d`` sets, each cast to its type;
    absent ones keep the dataclass defaults."""
    return {name: cast(d[name]) for name, cast in fields.items() if name in d}


def _board_pose(d: dict) -> BoardPose:
    ang = [float(x) for x in d["euler_deg"]]
    return BoardPose(euler_xyz_intrinsic(*ang), np.array(d["center_mm"], float))


# Config key -> (SimConfig field, parser of the key's JSON value).
_SIM_KEYS = {
    "intrinsics1": ("k1", LFIntrinsics.from_json_dict),
    "intrinsics2": ("k2", LFIntrinsics.from_json_dict),
    "pose": ("pose", parse_pose_dict),
    "board": ("board", lambda v: BoardSpec(**_present(_json_object(v), _BOARD_FIELDS))),
    "board_poses": ("board_poses", lambda v: tuple(map(_board_pose, v))),
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
        if key not in data:
            continue
        try:
            fields[field] = parse(data[key])
        except (KeyError, ValueError, TypeError, OverflowError) as e:
            msg = f"missing key {e.args[0]!r}" if isinstance(e, KeyError) else e
            raise ConfigError(f"{source}: {key}: {msg}") from e
    try:
        return SimConfig(**fields)
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from e


def load_sim_config(path) -> SimConfig:
    """Read a simulation config JSON.

    Recognised keys (all but ``pose`` optional): intrinsics1, intrinsics2,
    pose, board {rows, cols, spacing_mm}, board_poses
    [{euler_deg, center_mm}, ...], sai_rows, sai_cols, sigma_px, trials,
    seed.  Omitted camera models and board placements fall back to the
    benchmark defaults.
    """
    return parse_sim_config(load_json(path), source=str(path))
