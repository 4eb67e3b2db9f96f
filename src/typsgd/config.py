"""Flat key = value run configuration (INI sections via configparser), read through one key table."""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvio import config_hash, finite
from .density import check_bandwidth, check_gamma
from .errors import InvalidArgumentError
from .models import MODEL_KINDS
from .optimize import check_learning_rate, check_threshold

BOOLEAN_WORDS = configparser.ConfigParser.BOOLEAN_STATES


def _boolean(raw: str) -> bool:
    if raw.lower() not in BOOLEAN_WORDS:
        raise ValueError(f"not one of {', '.join(BOOLEAN_WORDS)}")
    return BOOLEAN_WORDS[raw.lower()]


def _one_of(*words):
    """A config value parser: one of ``words``, as itself."""

    def parse(raw):
        if raw not in words:
            raise ValueError(f"not one of {', '.join(words)}")
        return raw

    return parse


def _at_least(low: int):
    """A config value parser: an integer, refused below ``low``."""

    def parse(raw):
        value = int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value

    return parse


_count, _seed = _at_least(1), _at_least(0)


def _number_or(word: str, number=float):
    """A config value parser: ``word`` as itself, anything else as a number."""
    return lambda raw: raw if raw == word else number(raw)


def _list(convert):
    """A config value parser: a comma list, each entry through ``convert``."""
    return lambda raw: tuple(convert(v.strip()) for v in raw.split(",") if v.strip())


def _distinct(convert=str):
    """A config value parser for one axis of the training cells: a comma list, not empty and with no repeat."""

    def parse(raw):
        values = _list(convert)(raw)
        if not values or len(set(values)) < len(values):
            raise ValueError("must name at least one value, and none twice")
        return values

    return parse


def _matrix(raw: str) -> np.ndarray:
    """Rows separated by '|', entries by ','."""
    return np.array([[finite(v) for v in row.split(",")] for row in raw.split("|")])


REQUIRED = object()  # the default of a key that has none

# (section, key) -> (parser, default): every key the CLI reads
KEYS = {
    ("data", "kind"): (_one_of("clustered", "pwl", "csv"), REQUIRED),
    ("data", "seed"): (_seed, 0),
    ("data", "count"): (int, REQUIRED),
    ("data", "dims"): (int, REQUIRED),
    ("data", "centers"): (_matrix, REQUIRED),
    ("data", "weights"): (_list(finite), REQUIRED),
    ("data", "noise_sigma"): (finite, 0.0),
    ("data", "curve_length"): (int, REQUIRED),
    ("data", "segment_count"): (int, REQUIRED),
    ("data", "path"): (str, REQUIRED),
    ("data", "has_header"): (_boolean, True),
    ("data", "target_columns"): (_list(int), ()),
    ("data", "linear_target_weights"): (_list(finite), None),
    ("embedding", "perplexity"): (float, 30.0),
    ("embedding", "iterations"): (_count, 1000),
    ("embedding", "seed"): (_seed, 0),
    ("partition", "gamma"): (lambda raw: check_gamma(float(raw)), 0.3),
    ("partition", "bandwidth"): (lambda raw: check_bandwidth(_number_or("scott")(raw)), "scott"),
    ("train", "model"): (_one_of(*MODEL_KINDS), "quadratic"),
    ("train", "optimizers"): (_distinct(_one_of("sgd", "adam")), ("sgd",)),
    ("train", "samplers"): (_distinct(_one_of("srs", "typicality")), ("srs", "typicality")),
    ("train", "eta"): (_number_or("auto", check_learning_rate), "auto"),
    ("train", "adam_eta"): (check_learning_rate, None),  # None: the SGD eta
    ("train", "iterations"): (_count, REQUIRED),
    ("train", "m"): (int, REQUIRED),
    ("train", "n1"): (_number_or("auto", int), "auto"),
    ("train", "eval_every"): (_count, 10),
    ("train", "seeds"): (_distinct(_seed), (0,)),
    ("train", "threshold"): (lambda raw: check_threshold(float(raw)), 1e-3),
    ("train", "val_fraction"): (float, 0.0),
    ("train", "val_seed"): (_seed, 1234),
    ("train", "log_batches"): (_boolean, False),
    ("verify", "seed"): (_seed, 0),
    ("verify", "instances"): (_count, 100),
    ("output", "dir"): (str, "out"),
}
SECTIONS = list(dict.fromkeys(section for section, _ in KEYS))


@dataclass
class RunConfig:
    """Parsed configuration plus the digest of its raw text."""

    parser: configparser.ConfigParser
    digest: str

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The config at ``path``; a section outside ``KEYS`` is refused, as a usage error."""
        text = Path(path).read_text(encoding="utf-8")
        # no section name is special, so a [DEFAULT] section is refused like any other unknown one
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
        parser.read_string(text, source=str(path))
        unknown = [section for section in parser.sections() if section not in SECTIONS]
        if unknown:
            raise InvalidArgumentError(f"{path}: unknown section [{unknown[0]}]; the sections are {', '.join(SECTIONS)}")
        return cls(parser=parser, digest=config_hash(text))

    def __getitem__(self, section_key: tuple[str, str]):
        """The parsed value of ``[section] key``, or its ``KEYS`` default if absent; a refused value names the key."""
        section, key = section_key
        convert, default = KEYS[section_key]
        if not self.parser.has_option(section, key):
            if default is REQUIRED:
                raise InvalidArgumentError(f"config is missing [{section}] {key}")
            return default
        raw = self.parser.get(section, key).strip()
        try:
            return convert(raw)
        except ValueError as exc:
            raise InvalidArgumentError(f"[{section}] {key} = {raw!r}: {exc}") from None

    def set(self, section: str, key: str, value) -> None:
        """Replace one value for the rest of the run; the digest still names the file's text."""
        self.parser.read_dict({section: {key: str(value)}})
