"""Built-in group catalog backed by generator-file fixtures.

Every load re-verifies the constructed order against the manifest, so a
corrupted fixture fails loudly instead of silently producing the wrong
group. Subgroup fixtures additionally verify containment in their
parent. Loads are cached by id.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import IntegrityError, NotFoundError
from .perm import PermGroup, parse_generator_file

_CACHE = {}


def _fixture_root():
    return Path(str(resources.files("qsikit") / "fixtures"))


def manifest():
    path = _fixture_root() / "manifest.json"
    if not path.exists():
        raise NotFoundError(f"no manifest at {path}")
    with open(path) as handle:
        return json.load(handle)


def _load_entry(kind, name):
    """The manifest entry of a group or subgroup fixture and the group its
    file builds, verified to have the entry's order."""
    data = manifest()[kind + "s"]
    if name not in data:
        raise NotFoundError(
            f"unknown catalog {kind} {name!r}; known ids: "
            f"{', '.join(sorted(data))}")
    entry = data[name]
    group = load_file(_fixture_root() / entry["file"])
    if group.order != entry["order"]:
        raise IntegrityError(
            f"catalog {kind} {name}: constructed order "
            f"{group.order} != expected {entry['order']}")
    return entry, group


def load(group_id):
    """Load a catalog group by id, verifying its expected order."""
    if group_id not in _CACHE:
        _CACHE[group_id] = _load_entry("group", group_id)[1]
    return _CACHE[group_id]


def load_file(path):
    """Load a group from a generator-format file."""
    path = Path(path)
    if not path.is_file():
        raise NotFoundError(f"no generator file at {path}")
    degree, gens = parse_generator_file(path.read_text())
    return PermGroup(degree, gens)


def load_subgroup(subgroup_id):
    """Load a manifest-registered subgroup fixture with verified order and
    containment in its parent. Returns (parent, subgroup, entry dict)."""
    key = ("subgroup", subgroup_id)
    if key not in _CACHE:
        entry, sub = _load_entry("subgroup", subgroup_id)
        parent = load(entry["parent"])
        if not sub.is_subgroup_of(parent):
            raise IntegrityError(f"catalog subgroup {subgroup_id} is not "
                                 f"contained in {entry['parent']}")
        _CACHE[key] = (parent, sub, entry)
    return _CACHE[key]


def resolve(name):
    """Resolve a group name: a catalog id, or a path to a generator file."""
    try:
        return load(name)
    except NotFoundError:
        path = Path(name)
        if path.exists():
            return load_file(path)
        raise
