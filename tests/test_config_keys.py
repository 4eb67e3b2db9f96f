"""The config key table against its reader and its documentation, read from the source.

Every ``config[section, key]`` in cli.py names a ``KEYS`` entry and every entry is read, so a
misspelt key fails here even on a path the CLI tests do not run; the README reference lists
each entry once, with its default.
"""

import ast
from pathlib import Path

from typsgd.cli import SUBCOMMANDS
from typsgd.config import KEYS, REQUIRED, RunConfig

ROOT = Path(__file__).resolve().parents[1]


def config_reads():
    """The (section, key) of every ``config[...]`` subscript in cli.py; a subscript that is not a literal fails."""
    tree = ast.parse((ROOT / "src" / "typsgd" / "cli.py").read_text(encoding="utf-8"))
    return [
        ast.literal_eval(node.slice)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "config"
    ]


def test_every_config_read_names_a_key():
    reads = config_reads()
    assert reads and not set(reads) - set(KEYS), set(reads) - set(KEYS)


def test_every_seed_flag_replaces_a_key():
    seed_keys = {command.seed_key for command in SUBCOMMANDS.values()} - {None}
    assert seed_keys and not seed_keys - set(KEYS), seed_keys - set(KEYS)


def test_every_key_is_read():
    assert not set(KEYS) - set(config_reads()), set(KEYS) - set(config_reads())


def test_readme_config_reference_lists_every_key_with_its_default(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config reference (INI)", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "reference.ini"
    path.write_text(block, encoding="utf-8")
    # from_file refuses a duplicate key and a section the table does not know
    reference = RunConfig.from_file(path)
    listed = {(section, key) for section in reference.parser.sections() for key in reference.parser[section]}
    assert listed == set(KEYS), listed ^ set(KEYS)
    for (section, key), (_, default) in KEYS.items():
        raw = reference.parser.get(section, key)
        if default is REQUIRED:
            assert raw == "required", (section, key, raw)
        elif default is None:
            assert raw == "unset", (section, key, raw)
        else:
            assert reference[section, key] == default, (section, key, raw)
