"""The science text format: every file casimirlab writes or reads.

    # <title>
    # <key> = <value>           a parameter: str(value), a tuple space-separated
    # <note>                    a free line: fit window, verdict, set summary
    # columns: <name>  <name>
    <row>                       one '%' row format over the columns
    # block <label>             grid files: each block's rows follow its line

str() of a float is its shortest round-trip form, so a header value reads
back exactly.  read() is the one loader of these files; it and the config
reader take a file's text from load(), with one ConfigError rule.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

__all__ = ["TextFile", "header", "table", "write", "load", "read"]


def header(title: str, params=None, notes=()) -> str:
    """'# title', a '# key = value' line per item of params, then a '# note' line per note."""
    params = {key: " ".join(map(str, value)) if isinstance(value, tuple) else value
              for key, value in (params or {}).items()}
    lines = [title, *(f"{key} = {value}" for key, value in params.items()), *notes]
    return "".join([f"# {line}\n" for line in lines])


def _rows(fmt: str, columns) -> str:
    fmt += "\n"
    return "".join([fmt % values for values in zip(*[np.asarray(c).tolist() for c in columns])])


def table(names, fmt: str, columns=(), blocks=None) -> str:
    """The '# columns:' line, the rows of columns, then per label of blocks a
    '# block <label>' line and the rows of its columns.  A row is fmt % one
    value of each column, read as .tolist() floats."""
    text = "# columns: " + "  ".join(names) + "\n" + _rows(fmt, columns)
    for label, block in (blocks or {}).items():
        text += f"# block {label}\n" + _rows(fmt, block)
    return text


def write(path, text: str) -> Path:
    """Write text to path, making its directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TextFile(NamedTuple):
    """A file as read() parsed it."""

    path: str
    meta: dict[str, str]        # header values by key
    groups: list[np.ndarray]    # (rows, columns): the rows before any block, then each block's

    def value(self, key: str, convert=float):
        """The header value of key, converted; ConfigError if it is missing or does not convert."""
        try:
            return convert(self.meta[key])
        except KeyError:
            raise ConfigError(f"{self.path}: missing metadata line '# {key} = ...'") from None
        except ValueError:
            raise ConfigError(
                f"{self.path}: malformed metadata value {key} = {self.meta[key]!r}") from None


def load(path) -> str:
    """The text of path; a file that cannot be opened or decoded is a ConfigError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', exc)}") from None


def read(path, n_columns: int) -> TextFile:
    """Parse a file whose every row holds n_columns numbers."""
    text = load(path)
    meta: dict[str, str] = {}
    groups: list[list[list[float]]] = [[]]
    for line in map(str.strip, text.splitlines()):
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("block"):
                groups.append([])
            elif "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
        elif line:
            try:
                row = [float(tok) for tok in line.split()]
            except ValueError:
                row = []
            if len(row) != n_columns:
                raise ConfigError(
                    f"{path}: malformed number in {line!r}; a row holds {n_columns} numbers")
            groups[-1].append(row)
    if not any(groups):
        raise ConfigError(f"{path}: no data rows")
    return TextFile(str(path), meta, [np.array(g).reshape(-1, n_columns) for g in groups])
