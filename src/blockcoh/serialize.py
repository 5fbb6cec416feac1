"""JSON schemas shared across the package and the command-line tool.

A matrix is an array of rows; each entry is a two-element array [re, im] of
finite JSON numbers (integers or floats; strings and booleans are rejected).
A state file is {"dim": d, "matrix": [...]}.  A Kraus-set file is
{"dim": d, "partition": [d_1, ...], "kraus": [matrix, ...]}.  A POVM file is
{"dim": d, "effects": [matrix, ...]}; without "dim", each effect has the size
of the first.  Integers on the command line (``parse_int``) are ASCII digits
with the whitespace around them stripped; a partition is comma-separated
fields of that form, e.g. "2,3" or "2, 3", checked as a "partition" array is.

A matrix is decoded in one of two ways, with the same bits.  The fast
decoder, ``_grid_matrix``, reads each matrix of a "kraus" or "effects" array
straight from the text of ``load_json`` as one flat list of numbers, so a
well-formed file never holds a matrix as nested lists.  It declines any
element that is not a grid of finite numbers.  The entry loop of
``matrix_from_json`` decodes everything else and names the first bad entry:
state files, the element that the fast decoder declines and every element
after it, and documents that the member walk cannot finish.
"""

from __future__ import annotations

import cmath
import json
import os
import re
import stat

import numpy as np

from .blockcore import BlockPartition, validate_density_matrix
from .channels import KrausSet
from .naimark import Povm


class SchemaError(ValueError):
    """Input does not match the documented JSON schema."""


def matrix_to_json(mat) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _is_json_int(raw) -> bool:
    # JSON true/false load as Python bools, which are ints too
    return isinstance(raw, int) and not isinstance(raw, bool)


def _is_json_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _matrix_from_entries(obj, what: str) -> np.ndarray:
    # entry by entry, naming the first entry that breaks the schema
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{what} must be a nonempty array of rows")
    width = None
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise SchemaError(f"{what} row {r} is not a row of the expected width")
        width = len(row)
        vals = []
        for c, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise SchemaError(f"{what} entry ({r}, {c}) is not a [re, im] pair")
            try:
                val = complex(float(entry[0]), float(entry[1]))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{what} entry ({r}, {c}) is not numeric: {exc}") from exc
            except OverflowError:
                raise SchemaError(f"{what} entry ({r}, {c}) is too large for a float") from None
            # after float(), so that what float() rejects keeps its message
            if not all(_is_json_number(x) for x in entry):
                raise SchemaError(f"{what} entry ({r}, {c}) is not numeric: "
                                  f"{entry!r} holds a string or a boolean")
            if not cmath.isfinite(val):
                raise SchemaError(f"{what} entry ({r}, {c}) is not finite")
            vals.append(val)
        rows.append(vals)
    return np.array(rows, dtype=complex)


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """A (rows, cols) complex matrix from rows of [re, im] JSON numbers.

    A parsed list goes through the entry loop, whose SchemaError names the
    first bad entry.  A matrix that ``load_json`` has already decoded (a 2-D
    complex array) is passed through.
    """
    if isinstance(obj, np.ndarray) and obj.dtype == complex and obj.ndim == 2:
        return obj
    return _matrix_from_entries(obj, what)


# The top-level arrays whose elements load_json decodes as it parses them.
MATRIX_ARRAYS = ("kraus", "effects")
_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")
# _grid_matrix's stop, the first "]" that a grid of pairs does not continue
# from: "]]]", whose last bracket is group 1, or a "]" that is not followed
# by "]" or by "," and "[", or "]]," not followed by "[[".
_GRID_STOP = re.compile(r"\]{w}(?:\]{w}(?:(\])|,{w}\[(?!{w}\[))|,(?!{w}\[)|(?![ \t\n\r,\]]))"
                        .format(w=r"[ \t\n\r]*"))
# The skeleton drops the characters of JSON numbers and whitespace; the flat
# text turns brackets into whitespace.
_NOT_SKELETON = b"0123456789.eE+- \t\n\r"
_FLAT = str.maketrans("[]", "  ")


class _Unwalkable(Exception):
    """The text is not an object that the member walk can finish."""


def _past(text: str, pos: int, char: str) -> int:
    # the position after ``char`` and the whitespace around it
    pos = _SPACE.match(text, pos).end()
    if not text.startswith(char, pos):
        raise _Unwalkable
    return _SPACE.match(text, pos + 1).end()


def _walk(text: str, pos: int, close: str, item):
    """Members of the object or array opened at ``pos``, up to ``close``.

    ``item(pos)`` parses one member and returns the position after it.
    Returns the position after ``close``.
    """
    pos = _past(text, pos, "{" if close == "}" else "[")
    if text.startswith(close, pos):
        return pos + 1
    while True:
        pos = _SPACE.match(text, item(pos)).end()
        if text.startswith(close, pos):
            return pos + 1
        pos = _past(text, pos, ",")


def _load_object(text: str) -> dict:
    # every key and value is parsed by json's own raw_decode, so the number
    # and string grammar stay json's; a repeated key keeps its first place
    # and its last value, as in json.loads
    obj = {}
    # _grid_matrix reads elements until it first declines one; after that its
    # stop search never runs again, so it scans the text at most once more.
    # The declined element and every one after it stay as raw_decode parses
    # them, for the entry loop of matrix_from_json
    grid = True

    def item(pos, items):
        nonlocal grid
        found = _grid_matrix(text, pos) if grid else None
        if found is None:
            grid = False
            found = _DECODER.raw_decode(text, pos)
        items.append(found[0])
        return found[1]

    def member(pos):
        if not text.startswith('"', pos):
            raise _Unwalkable
        key, pos = _DECODER.raw_decode(text, pos)
        pos = _past(text, pos, ":")
        if key in MATRIX_ARRAYS and text.startswith("[", pos):
            obj[key] = items = []
            return _walk(text, pos, "]", lambda pos: item(pos, items))
        obj[key], pos = _DECODER.raw_decode(text, pos)
        return pos

    end = _walk(text, 0, "}", member)
    if _SPACE.match(text, end).end() != len(text):
        raise _Unwalkable
    return obj


def _grid_matrix(text: str, pos: int):
    """(matrix, position after it) of the array element at ``pos``, read from its text.

    None declines: this element and every one after it go to raw_decode and
    then to the entry loop.  The element must be three "[" with whitespace
    between them, then text up to the first stop of _GRID_STOP that is three
    closing brackets; its skeleton must be that of an r x c grid of [re, im]
    pairs, and json must read the text with its brackets turned to whitespace
    as one list of numbers.  Then no number stands outside a pair and every
    pair holds two, so the text is the JSON grid that raw_decode would read,
    and these are the values that the entry loop gives it: json's own
    grammar, then float() of each number, all finite.
    """
    start = pos
    for _ in range(3):
        if not text.startswith("[", pos):
            return None
        pos = _SPACE.match(text, pos + 1).end()
    stop = _GRID_STOP.search(text, pos)
    if stop is None or stop.group(1) is None:
        return None
    seg = text[start:stop.end()]
    # as ASCII bytes, where translate deletes fastest; other characters become "?"
    skeleton = seg.encode("ascii", "replace").translate(None, _NOT_SKELETON)
    cols = skeleton.find(b"]]") // 4
    row = b"[" + b",".join([b"[,]"] * cols) + b"]"
    rows = (len(skeleton) - 1) // (len(row) + 1)
    if cols < 1 or skeleton != b"[" + b",".join([row] * rows) + b"]":
        return None
    try:
        values = np.array(json.loads("[" + seg.translate(_FLAT) + "]"), dtype=float)
    except (ValueError, OverflowError):  # not json numbers, or an int beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(rows, cols), stop.end()


def load_json(text: str):
    """The document ``text`` as json.loads gives it, matrices decoded on the way.

    A top-level object is walked member by member.  Each element of a
    "kraus" or "effects" array is read from its text by _grid_matrix into a
    complex array, which matrix_from_json passes through.  The first element
    that _grid_matrix declines, and every one after it, is parsed by json's
    raw_decode and stays as parsed, for the entry loop.  A document the walk
    cannot finish (invalid JSON, a top level that is not an object) goes to
    json.loads, which returns or raises as it always does.
    """
    try:
        return _load_object(text)
    except (_Unwalkable, ValueError, RecursionError):
        pass  # outside the handler, so the partial walk is freed first
    return json.loads(text)


def parse_int(text: str, minimum: int) -> int:
    """The command line's one integer rule: ASCII digits, whitespace around them stripped.

    int() alone would also read "1_0", "+7" and non-ASCII digits such as "٣".
    """
    field = text.strip()
    if re.fullmatch("[0-9]+", field):
        try:
            value = int(field)
        except ValueError as exc:  # past int()'s digit limit
            raise SchemaError(str(exc)) from None
        if value >= minimum:
            return value
    raise SchemaError(f"expected an integer >= {minimum} in ASCII digits, got {field!r}")


def parse_partition(text: str) -> BlockPartition:
    """Comma-separated block sizes, each read by parse_int, then checked as a "partition" array."""
    try:
        dims = [parse_int(field, 1) for field in str(text).split(",")]
    except SchemaError as exc:
        raise SchemaError(f"bad partition {text!r}: {exc}") from None
    return partition_from_json(dims)


def partition_from_json(obj) -> BlockPartition:
    """A "partition" array of JSON integers; a float or a boolean is a SchemaError."""
    if not isinstance(obj, list) or not all(_is_json_int(x) for x in obj):
        raise SchemaError(f"partition must be an array of positive integers, got {obj!r}")
    try:
        return BlockPartition(obj)
    except ValueError as exc:
        raise SchemaError(f"bad partition {obj!r}: {exc}") from exc


def _dim_from_json(obj: dict, default):
    """The "dim" field as an int, ``default`` when it is absent.

    Only a JSON integer is accepted; a float such as 2.7, a boolean or a
    string is a SchemaError, never truncated or converted.
    """
    if "dim" not in obj:
        return default
    raw = obj["dim"]
    if not _is_json_int(raw):
        raise SchemaError(f'"dim" must be an integer, got {raw!r}')
    return raw


def state_from_json(obj) -> np.ndarray:
    """The state's matrix, checked as a density matrix; a failed check is a SchemaError."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise SchemaError('state file must be an object with "dim" and "matrix"')
    mat = matrix_from_json(obj["matrix"], "state matrix")
    dim = _dim_from_json(obj, mat.shape[0])
    if mat.shape != (dim, dim):
        raise SchemaError(f"state matrix is {mat.shape[0]}x{mat.shape[1]}, expected {dim}x{dim}")
    try:
        return validate_density_matrix(mat)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _matrices_from_json(obj: dict, key: str, what: str, dim=None) -> np.ndarray:
    """The nonempty array obj[key] of dim x dim matrices, element n named "{what} n".

    ``dim`` None reads the file's "dim"; without one, each has the first's shape."""
    if not isinstance(obj[key], list) or not obj[key]:
        raise SchemaError(f'"{key}" must be a nonempty array of matrices')
    if dim is None:
        dim = _dim_from_json(obj, None)
    shape, mats = (None if dim is None else (dim, dim)), []
    for n, raw in enumerate(obj[key]):
        mat = matrix_from_json(raw, f"{what} {n}")
        shape = shape or mat.shape
        if mat.shape != shape:
            raise SchemaError("{} {} is {}x{}, expected {}x{}".format(what, n, *mat.shape, *shape))
        mats.append(mat)
    return np.array(mats)


def kraus_to_json(ks: KrausSet) -> dict:
    return {
        "dim": ks.dim,
        "partition": list(ks.partition.dims),
        "kraus": [matrix_to_json(op) for op in ks.operators],
    }


def kraus_from_json(obj) -> KrausSet:
    if not isinstance(obj, dict) or "kraus" not in obj or "partition" not in obj:
        raise SchemaError('Kraus file must be an object with "dim", "partition" and "kraus"')
    partition = partition_from_json(obj["partition"])
    dim = _dim_from_json(obj, partition.total)
    if dim != partition.total:
        raise SchemaError(f"dim {dim} does not match partition total {partition.total}")
    ops = _matrices_from_json(obj, "kraus", "operator", dim)
    try:
        return KrausSet(partition, ops)
    except ValueError as exc:  # an entry above channels.MAX_ENTRY in magnitude
        raise SchemaError(str(exc)) from exc


def povm_to_json(povm: Povm) -> dict:
    return {"dim": povm.dim, "effects": [matrix_to_json(e) for e in povm.effects]}


def povm_from_json(obj) -> Povm:
    if not isinstance(obj, dict) or "effects" not in obj:
        raise SchemaError('POVM file must be an object with "dim" and "effects"')
    effects = _matrices_from_json(obj, "effects", "effect")
    try:
        return Povm(effects)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def write_text_atomic(path: str, text: str):
    """Write text to a sibling temp file, then rename over the target.

    The output gets the mode that open(path, "w") would leave: an existing
    target keeps its own, a new file gets 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".blockcoh-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            try:
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(text)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            # the temp file's random name would make the message differ per run
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
