"""Built-in group catalog backed by generator-file fixtures.

Every load re-verifies the constructed order against the manifest, so a
corrupted fixture fails loudly instead of silently producing the wrong
group. Subgroup fixtures additionally verify containment in their
parent.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import IntegrityError, NotFoundError
from .perm import PermGroup, parse_cycle_string, parse_generator_file

_DEFAULT_CACHE = {}


def _fixture_root(fixtures_path=None):
    if fixtures_path is not None:
        return Path(fixtures_path)
    return Path(str(resources.files("qsikit") / "fixtures"))


def manifest(fixtures_path=None):
    root = _fixture_root(fixtures_path)
    path = root / "manifest.json"
    if not path.exists():
        raise NotFoundError(f"no manifest at {path}")
    with open(path) as handle:
        return json.load(handle)


def group_ids(fixtures_path=None):
    return sorted(manifest(fixtures_path)["groups"])


def load(group_id, fixtures_path=None):
    """Load a catalog group by id, verifying its expected order."""
    cache_key = (group_id, fixtures_path)
    if fixtures_path is None and cache_key in _DEFAULT_CACHE:
        return _DEFAULT_CACHE[cache_key]
    data = manifest(fixtures_path)["groups"]
    if group_id not in data:
        raise NotFoundError(
            f"unknown catalog group {group_id!r}; known ids: "
            f"{', '.join(sorted(data))}")
    entry = data[group_id]
    group = load_file(_fixture_root(fixtures_path) / entry["file"])
    if group.order != entry["order"]:
        raise IntegrityError(
            f"catalog group {group_id}: constructed order {group.order} "
            f"!= expected {entry['order']}")
    if fixtures_path is None:
        _DEFAULT_CACHE[cache_key] = group
    return group


def load_file(path):
    """Load a group from a generator-format file."""
    path = Path(path)
    if not path.is_file():
        raise NotFoundError(f"no generator file at {path}")
    degree, gens = parse_generator_file(path.read_text())
    return PermGroup(degree, gens)


def load_subgroup(datum, fixtures_path=None):
    """Load a subgroup with verified containment and order.

    Accepts either the id of a manifest-registered subgroup fixture, or
    an ad-hoc datum dict with keys ``parent`` (catalog id), ``order``,
    and either ``generators`` (cycle strings, elements of the parent)
    or ``file``. Returns (parent, subgroup, entry dict).
    """
    if isinstance(datum, str):
        cache_key = ("sub:" + datum, fixtures_path)
        if fixtures_path is None and cache_key in _DEFAULT_CACHE:
            return _DEFAULT_CACHE[cache_key]
        data = manifest(fixtures_path)["subgroups"]
        if datum not in data:
            raise NotFoundError(f"unknown catalog subgroup {datum!r}")
        entry = data[datum]
    else:
        cache_key = None
        entry = dict(datum)
    parent = load(entry["parent"], fixtures_path)
    if "file" in entry:
        sub = load_file(_fixture_root(fixtures_path) / entry["file"])
    else:
        sub = PermGroup(parent.degree,
                        [parse_cycle_string(text, parent.degree)
                         for text in entry["generators"]])
    if sub.order != entry["order"]:
        raise IntegrityError(
            f"subgroup of {entry['parent']}: constructed order {sub.order} "
            f"!= expected {entry['order']}")
    if not sub.is_subgroup_of(parent):
        raise IntegrityError(
            f"subgroup is not contained in {entry['parent']}")
    result = (parent, sub, entry)
    if cache_key is not None and fixtures_path is None:
        _DEFAULT_CACHE[cache_key] = result
    return result


def resolve(name, fixtures_path=None):
    """Resolve a group name: a catalog id, or a path to a generator file."""
    try:
        return load(name, fixtures_path)
    except NotFoundError:
        path = Path(name)
        if path.exists():
            return load_file(path)
        raise
