"""Flat key = value run configuration (INI sections via configparser)."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvio import config_hash
from .errors import InvalidArgumentError

BOOLEAN_WORDS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _boolean(raw: str) -> bool:
    if raw.lower() not in BOOLEAN_WORDS:
        raise ValueError(f"not one of {', '.join(BOOLEAN_WORDS)}")
    return BOOLEAN_WORDS[raw.lower()]


@dataclass
class RunConfig:
    """Parsed configuration plus the digest of its raw text."""

    parser: configparser.ConfigParser
    digest: str

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        text = Path(path).read_text(encoding="utf-8")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text, source=str(path))
        return cls(parser=parser, digest=config_hash(text))

    def get(self, section: str, key: str, fallback=None, required: bool = False) -> str:
        if not self.parser.has_option(section, key):
            if required:
                raise InvalidArgumentError(f"config is missing [{section}] {key}")
            return fallback
        return self.parser.get(section, key).strip()

    def set(self, section: str, key: str, value) -> None:
        """Replace one value for the rest of the run; the digest still names the file's text."""
        self.parser.read_dict({section: {key: str(value)}})

    def parse(self, section: str, key: str, convert, fallback=None, required: bool = False):
        """``convert`` applied to the value, or ``fallback`` if it is absent; a rejected value names the key."""
        raw = self.get(section, key, required=required)
        if raw is None:
            return fallback
        try:
            return convert(raw)
        except ValueError as exc:
            raise InvalidArgumentError(f"[{section}] {key} = {raw!r}: {exc}") from None

    def get_int(self, section: str, key: str, fallback=None, required: bool = False):
        return self.parse(section, key, int, fallback, required)

    def get_float(self, section: str, key: str, fallback=None, required: bool = False):
        return self.parse(section, key, float, fallback, required)

    def get_bool(self, section: str, key: str, fallback: bool = False) -> bool:
        return self.parse(section, key, _boolean, fallback)

    def get_floats(self, section: str, key: str, required: bool = False):
        return self.parse(section, key, lambda raw: [float(v) for v in raw.split(",") if v.strip()], required=required)

    def get_ints(self, section: str, key: str, fallback=None):
        return self.parse(section, key, lambda raw: [int(v) for v in raw.split(",") if v.strip()], fallback)

    def get_matrix(self, section: str, key: str, required: bool = False):
        """Rows separated by '|', entries by ','."""
        return self.parse(
            section, key, lambda raw: np.array([[float(v) for v in row.split(",")] for row in raw.split("|")]), required=required
        )
