"""File formats of the command-line stages, written and read only here: CSV
tables (run logs, detector telemetry, identification records) and the block
files of models and baselines, and the value domains of scenario and block
file keys. Malformed input raises ConfigError naming the file, and the line
where there is one; an unreadable file raises OSError.
"""

from __future__ import annotations

import math

import numpy as np

# CSV cell format by numpy dtype kind: floats to 9 significant digits,
# integers and booleans in full, strings as they are
_CELL = {"f": "%.9g", "i": "%d", "u": "%d", "b": "%d", "O": "%s", "U": "%s"}
_BLOCK_ROWS = 256  # rows held as Python objects at once: bounds the writer's memory


# A key's domain, (kind, test, rule): kind converts each token into a value, and
# parse_value rejects a value that fails test as "must be <rule>".
TEXT = (str, None, "")
REAL = (float, math.isfinite, "finite")
POSITIVE = (float, lambda v: 0.0 < v < math.inf, "finite and > 0")
NON_NEGATIVE = (float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
COUNT = (int, lambda v: v >= 1, ">= 1")
INDEX = (int, lambda v: v >= 0, ">= 0")


class ConfigError(ValueError):
    """Input file problem; message carries file and line."""


def parse_value(domain, key: str, text: str, many: bool = False):
    """text converted by domain's kind, or for many each of its tokens split at
    whitespace and commas, and checked by its test; a ValueError names key."""
    kind, test, rule = domain
    try:
        value = [kind(t) for t in text.replace(",", " ").split()] if many else kind(text)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ValueError(f"{key}: expected {noun}, got {text!r}") from None
    for v in value if many else [value]:
        if test and not test(v):
            raise ValueError(f"{key} must be {rule}, got {v}")
    return value


def write_table(path, names, columns) -> None:
    """Write equal-length 1-D columns as CSV under a header of names."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join(_CELL[col.dtype.kind] for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = (col[start : start + _BLOCK_ROWS].tolist() for col in columns)
            fh.writelines(row % cells for cells in zip(*block))


def read_table(path, names=None) -> tuple[list[str], np.ndarray]:
    """Header and a (rows, len(names)) float array of the named columns (all
    columns when names is None) of a CSV table.

    Every non-blank row must have one field per header name and end with a
    newline, as the writer leaves it, so a table cut inside its last field
    fails; only the named columns are converted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        names = header if names is None else names
        missing = [name for name in names if name not in header]
        if missing:
            raise ConfigError(f"{path}: line 1: missing column {missing[0]!r}")
        picks = [header.index(name) for name in names]
        rows = []
        for lineno, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != len(header):
                raise ConfigError(f"{path}: line {lineno}: expected {len(header)} "
                                  f"fields, got {len(fields)}")
            if not line.endswith("\n"):
                raise ConfigError(f"{path}: line {lineno}: cut short (no newline)")
            try:
                rows.append([float(fields[j]) for j in picks])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    return header, np.array(rows, dtype=float).reshape(len(rows), len(names))


class BlockFile:
    """Structured text of model and baseline files: `key = value` header
    lines, each key declared with its domain, then `[name]` blocks of
    whitespace-separated finite numbers.

    Malformed lines, unknown or repeated keys, values outside their domain,
    repeated blocks, missing keys and missing or mis-sized blocks raise
    ConfigError naming the file, and the line where there is one.
    """

    def __init__(self, path, keys: dict):
        self.path = path
        self._header: dict = {}
        self._blocks: dict[str, list[float]] = {}
        block = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                try:
                    if line.startswith("[") and line.endswith("]"):
                        if line[1:-1] in self._blocks:
                            raise ValueError(f"block {line} appears twice")
                        name = line
                        block = self._blocks[line[1:-1]] = []
                    elif block is not None:
                        block.extend(parse_value(REAL, name, v) for v in line.split())
                    elif "=" in line:
                        key, _, value = (part.strip() for part in line.partition("="))
                        if key not in keys:
                            raise ValueError(f"{key}: unknown key")
                        if key in self._header:
                            raise ValueError(f"{key}: repeated key")
                        self._header[key] = parse_value(keys[key], key, value)
                    elif line:
                        raise ValueError("expected 'key = value'")
                except ValueError as exc:
                    raise ConfigError(f"{path}: line {lineno}: {exc}") from exc

    @staticmethod
    def write(path, header: dict, blocks: dict) -> None:
        """Write header values and row-major decimal matrices (1-D as one row)."""
        lines = [f"{key} = {value}" for key, value in header.items()]
        for name, mat in blocks.items():
            lines.append(f"[{name}]")
            lines += [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def value(self, key: str, default=None):
        """Header value, of its domain's kind; default when the key is absent."""
        value = self._header.get(key, default)
        if value is None:
            raise ConfigError(f"{self.path}: missing header key {key!r}")
        return value

    def block(self, name: str, *shape: int) -> np.ndarray:
        """Numbers of block [name], reshaped to shape when one is given."""
        if name not in self._blocks:
            raise ConfigError(f"{self.path}: missing [{name}] block")
        data = np.array(self._blocks[name])
        if shape and data.size != np.prod(shape):
            raise ConfigError(f"{self.path}: [{name}] block needs "
                              f"{' x '.join(map(str, shape))} values, got {data.size}")
        return data.reshape(shape) if shape else data
