"""File formats of the command-line stages, written and read only here: CSV
tables (run logs, detector telemetry, identification records) and the block
files of models and baselines. Malformed input raises ConfigError naming the
file, and the line where there is one; an unreadable file raises OSError.
"""

from __future__ import annotations

import numpy as np

# CSV cell format by numpy dtype kind: floats to 9 significant digits,
# integers and booleans in full, strings as they are
_CELL = {"f": "%.9g", "i": "%d", "u": "%d", "b": "%d", "O": "%s", "U": "%s"}
_BLOCK_ROWS = 256  # rows held as Python objects at once: bounds the writer's memory


class ConfigError(ValueError):
    """Input file problem; message carries file and line."""


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
    lines of numbers, then `[name]` blocks of whitespace-separated numbers.

    Malformed lines, missing keys and missing or mis-sized blocks raise
    ConfigError naming the file, and the line where there is one.
    """

    def __init__(self, path):
        self.path = path
        self._header: dict[str, float] = {}
        self._blocks: dict[str, list[float]] = {}
        block = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                try:
                    if line.startswith("[") and line.endswith("]"):
                        block = self._blocks.setdefault(line[1:-1], [])
                    elif block is not None:
                        block.extend(float(v) for v in line.split())
                    elif "=" in line:
                        key, _, value = line.partition("=")
                        self._header[key.strip()] = float(value)
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

    def value(self, key: str, default: float | None = None) -> float:
        """Header value; default when the key is absent."""
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
