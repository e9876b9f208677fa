import importlib.util
import sys
from pathlib import Path

import pytest

from qsikit import catalog
from qsikit.errors import IntegrityError, NotFoundError
from qsikit.lietype import group_order
from qsikit.perm import (
    PermGroup,
    Permutation,
    format_generator_file,
    parse_generator_file,
)


EXPECTED_ORDERS = {
    "A5": 60, "A6": 360, "A7": 2520, "A8": 20160, "A9": 181440,
    "S4": 24, "SL23": 24, "PSL27": 168, "PSL211": 660,
    "M11": 7920, "PSU42": 25920,
}


def test_all_entries_load_with_expected_orders():
    assert sorted(EXPECTED_ORDERS) == sorted(catalog.manifest()["groups"])
    for group_id, order in EXPECTED_ORDERS.items():
        assert catalog.load(group_id).order == order


def test_unknown_id():
    with pytest.raises(NotFoundError):
        catalog.load("M12")


def test_round_trip_through_generator_format():
    for group_id in EXPECTED_ORDERS:
        group = catalog.load(group_id)
        text = format_generator_file(group)
        degree, gens = parse_generator_file(text)
        rebuilt = PermGroup(degree, gens)
        assert rebuilt.order == group.order
        assert list(rebuilt.generators) == list(group.generators)


def test_orders_agree_with_lie_type_formulas():
    correspondences = [
        ("A5", ("PSL", 2, 5)),
        ("A5", ("PSL", 2, 4)),
        ("A6", ("PSL", 2, 9)),
        ("PSL27", ("PSL", 2, 7)),
        ("PSL27", ("PSL", 3, 2)),
        ("PSL211", ("PSL", 2, 11)),
        ("PSU42", ("PSU", 4, 2)),
        ("PSU42", ("PSp", 2, 3)),
    ]
    for group_id, (family, n, q) in correspondences:
        assert catalog.load(group_id).order == \
            group_order(family, n, q).simple


def test_bsgs_orders_match_exhaustive_closure():
    # every catalog entry fits the enumeration bound, so the plain
    # multiplicative closure is an independent order oracle
    from test_perm import closure_order

    for group_id in EXPECTED_ORDERS:
        group = catalog.load(group_id)
        assert closure_order(group.generators, group.degree) == group.order


def test_subgroup_fixture_loads_and_embeds():
    parent, sub, entry = catalog.load_subgroup("PSU42_U160")
    assert parent.order == 25920
    assert sub.order == 160
    assert parent.order // sub.order == 162
    assert sub.is_subgroup_of(parent)
    assert isinstance(entry["witness_linear_char_index"], int)


def test_unknown_subgroup():
    with pytest.raises(NotFoundError):
        catalog.load_subgroup("NOPE")


def tampered_fixtures(tmp_path, monkeypatch, tamper):
    """Point the catalog, with an empty cache, at a copy of the fixtures
    whose manifest tamper has edited; returns the copy's directory."""
    import json
    import shutil

    dst = tmp_path / "fixtures"
    shutil.copytree(catalog._fixture_root(), dst)
    manifest = json.loads((dst / "manifest.json").read_text())
    tamper(manifest)
    (dst / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(catalog, "_fixture_root", lambda: dst)
    monkeypatch.setattr(catalog, "_CACHE", {})
    return dst


@pytest.mark.parametrize("key,value,message", [
    ("order", 80, "constructed order 160 != expected 80"),
    ("file", "moved.gens", "not contained in PSU42"),
], ids=["wrong-order", "outside-parent"])
def test_tampered_subgroup_entry_detected(tmp_path, monkeypatch, key, value,
                                          message):
    parent, sub, _ = catalog.load_subgroup("PSU42_U160")
    # a point swap moves U160 to a group of its order outside PSU(4,2)
    swap = Permutation.from_cycles(parent.degree, [[0, 1]])
    moved = PermGroup(parent.degree,
                      [g.conjugated_by(swap) for g in sub.generators])
    assert moved.order == 160 and not moved.is_subgroup_of(parent)

    def tamper(manifest):
        manifest["subgroups"]["PSU42_U160"][key] = value

    dst = tampered_fixtures(tmp_path, monkeypatch, tamper)
    (dst / "moved.gens").write_text(format_generator_file(moved))
    with pytest.raises(IntegrityError, match=message):
        catalog.load_subgroup("PSU42_U160")


def test_load_file_and_resolve(tmp_path):
    group = catalog.load("S4")
    path = tmp_path / "custom.gens"
    path.write_text(format_generator_file(group))
    loaded = catalog.load_file(path)
    assert loaded.order == 24
    assert catalog.resolve(str(path)).order == 24
    with pytest.raises(NotFoundError):
        catalog.resolve("does-not-exist")


def test_corrupted_fixture_detected(tmp_path, monkeypatch):
    def tamper(manifest):
        manifest["groups"]["A5"]["order"] = 61

    tampered_fixtures(tmp_path, monkeypatch, tamper)
    with pytest.raises(IntegrityError):
        catalog.load("A5")


def test_fixture_script_rebuilds_the_committed_fixtures(tmp_path, monkeypatch):
    script = (Path(__file__).resolve().parent.parent / "scripts"
              / "build_catalog_fixtures.py")
    spec = importlib.util.spec_from_file_location("build_catalog_fixtures",
                                                  script)
    module = importlib.util.module_from_spec(spec)
    # the script puts src/ on sys.path when it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    module.main()
    committed = catalog._fixture_root()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in committed.iterdir()
                             if path.is_file())
    for name in written:
        assert (tmp_path / name).read_bytes() == \
            (committed / name).read_bytes(), name
