"""Unit tests for the catalog: DDL, zombies, blocking, swaps."""

import pytest

from repro.common.errors import (DuplicateTableError, NoSuchTableError,
                                 TransformationStateError)
from repro.storage import Catalog, Table, TableSchema


def schema(name: str) -> TableSchema:
    return TableSchema(name, ["id", "v"], primary_key=["id"])


def test_create_get_drop():
    cat = Catalog()
    table = cat.create_table(schema("a"))
    assert cat.get("a") is table
    assert cat.exists("a")
    assert cat.table_names() == ["a"]
    dropped = cat.drop_table("a")
    assert dropped is table
    assert not cat.exists("a")
    with pytest.raises(NoSuchTableError):
        cat.get("a")
    with pytest.raises(NoSuchTableError):
        cat.drop_table("a")


def test_duplicate_create_rejected():
    cat = Catalog()
    cat.create_table(schema("a"))
    with pytest.raises(DuplicateTableError):
        cat.create_table(schema("a"))


def test_add_existing_table_object():
    cat = Catalog()
    table = Table(schema("x"))
    cat.add_table(table)
    assert cat.get("x") is table
    with pytest.raises(DuplicateTableError):
        cat.add_table(Table(schema("x")))


def test_rename():
    cat = Catalog()
    cat.create_table(schema("a"))
    cat.create_table(schema("b"))
    cat.rename_table("a", "c")
    assert cat.exists("c") and not cat.exists("a")
    assert cat.get("c").name == "c"
    with pytest.raises(DuplicateTableError):
        cat.rename_table("c", "b")


def test_blocking_marks():
    cat = Catalog()
    cat.create_table(schema("a"))
    cat.block(["a"])
    assert cat.is_blocked("a")
    cat.unblock(["a"])
    assert not cat.is_blocked("a")
    with pytest.raises(NoSuchTableError):
        cat.block(["missing"])


def test_swap_retires_and_publishes():
    cat = Catalog()
    cat.create_table(schema("R"))
    cat.create_table(schema("S"))
    target = Table(schema("T_internal"))
    cat.add_table(target)
    cat.swap("tf", ["R", "S"], {"T": target}, keep_zombies=False)
    assert cat.table_names() == ["T"]
    assert target.name == "T"
    assert not cat.is_zombie("R")


def test_swap_keeps_zombies():
    cat = Catalog()
    cat.create_table(schema("R"))
    target = Table(schema("T"))
    cat.add_table(target)
    cat.swap("tf", ["R"], {"T": target}, keep_zombies=True)
    assert cat.is_zombie("R")
    assert cat.get_any("R").name == "R"
    with pytest.raises(NoSuchTableError):
        cat.get("R")
    assert cat.zombie_names() == ["R"]
    cat.drop_zombie("R")
    assert not cat.is_zombie("R")
    with pytest.raises(NoSuchTableError):
        cat.get_any("R")


def test_swap_publish_under_own_name():
    """Targets already cataloged under their public name swap in place."""
    cat = Catalog()
    cat.create_table(schema("R"))
    target = cat.create_table(schema("T"))
    cat.swap("tf", ["R"], {"T": target}, keep_zombies=False)
    assert cat.get("T") is target


def test_swap_publish_collision_rejected():
    cat = Catalog()
    cat.create_table(schema("R"))
    cat.create_table(schema("X"))
    other = Table(schema("Y"))
    cat.add_table(other)
    with pytest.raises(DuplicateTableError):
        cat.swap("tf", ["R"], {"X": other}, keep_zombies=False)


def test_swap_missing_source_rejected():
    cat = Catalog()
    target = Table(schema("T"))
    with pytest.raises(NoSuchTableError):
        cat.swap("tf", ["missing"], {"T": target}, keep_zombies=False)


def test_swap_clears_blocked_mark():
    cat = Catalog()
    cat.create_table(schema("R"))
    cat.block(["R"])
    target = Table(schema("T"))
    cat.swap("tf", ["R"], {"T": target}, keep_zombies=False)
    assert not cat.is_blocked("R")


def test_swap_registers_and_retire_unpublishes():
    """A swap registers its published names under its transform id; a
    refused swap (a missing source, an id in effect) registers nothing;
    retire removes the entry and drops the published tables still
    visible, and leaves the rest alone, so the id can swap again."""
    cat = Catalog()
    cat.create_table(schema("R"))
    with pytest.raises(NoSuchTableError):
        cat.swap("bad", ["missing"], {"X": Table(schema("X"))},
                 keep_zombies=False)
    cat.swap("view", [], {"V": Table(schema("V")), "W": Table(schema("W"))},
             keep_zombies=False)
    cat.swap("tf", ["R"], {"T": Table(schema("T"))}, keep_zombies=False)
    assert cat.swaps() == {"view": ("V", "W"), "tf": ("T",)}
    with pytest.raises(TransformationStateError):
        cat.swap("tf", [], {"U": Table(schema("U"))}, keep_zombies=False)
    cat.drop_table("W")
    cat.retire("view")
    assert cat.swaps() == {"tf": ("T",)}
    assert cat.table_names() == ["T"]
    cat.swap("view", [], {"V": Table(schema("V"))}, keep_zombies=False)
    assert cat.swaps() == {"tf": ("T",), "view": ("V",)}


def test_zombie_name_conflicts_block_creation():
    cat = Catalog()
    cat.create_table(schema("R"))
    target = Table(schema("T"))
    cat.swap("tf", ["R"], {"T": target}, keep_zombies=True)
    with pytest.raises(DuplicateTableError):
        cat.create_table(schema("R"))  # the zombie still owns the name


def test_repr_lists_tables_and_zombies():
    cat = Catalog()
    cat.create_table(schema("a"))
    target = Table(schema("T"))
    cat.swap("tf", ["a"], {"T": target}, keep_zombies=True)
    text = repr(cat)
    assert "T" in text and "a" in text
