"""Flat key = value run configuration (INI sections via configparser)."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvio import config_hash
from .errors import InvalidArgumentError

BOOLEAN_WORDS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


@dataclass
class RunConfig:
    """Parsed configuration plus the digest of its raw text."""

    parser: configparser.ConfigParser
    digest: str
    path: str

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        text = Path(path).read_text(encoding="utf-8")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text)
        return cls(parser=parser, digest=config_hash(text), path=str(path))

    def has(self, section: str, key: str) -> bool:
        return self.parser.has_section(section) and self.parser.has_option(section, key)

    def get(self, section: str, key: str, fallback=None, required: bool = False) -> str:
        if not self.has(section, key):
            if required:
                raise InvalidArgumentError(f"config is missing [{section}] {key}")
            return fallback
        return self.parser.get(section, key).strip()

    def get_int(self, section: str, key: str, fallback=None, required: bool = False):
        raw = self.get(section, key, required=required)
        return int(raw) if raw is not None else fallback

    def get_float(self, section: str, key: str, fallback=None, required: bool = False):
        raw = self.get(section, key, required=required)
        return float(raw) if raw is not None else fallback

    def get_bool(self, section: str, key: str, fallback: bool = False) -> bool:
        raw = self.get(section, key)
        if raw is None:
            return fallback
        if raw.lower() not in BOOLEAN_WORDS:
            raise InvalidArgumentError(f"[{section}] {key} = {raw!r} is not one of {', '.join(BOOLEAN_WORDS)}")
        return BOOLEAN_WORDS[raw.lower()]

    def get_floats(self, section: str, key: str, required: bool = False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return None
        return [float(v) for v in raw.split(",") if v.strip()]

    def get_ints(self, section: str, key: str, fallback=None):
        raw = self.get(section, key)
        if raw is None:
            return fallback
        return [int(v) for v in raw.split(",") if v.strip()]

    def get_list(self, section: str, key: str, fallback=()):
        raw = self.get(section, key)
        if raw is None:
            return list(fallback)
        return [v.strip() for v in raw.split(",") if v.strip()]

    def get_matrix(self, section: str, key: str, required: bool = False):
        """Rows separated by '|', entries by ','."""
        raw = self.get(section, key, required=required)
        if raw is None:
            return None
        return np.array([[float(v) for v in row.split(",")] for row in raw.split("|")])
