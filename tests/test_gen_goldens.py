"""tests/data/gen_goldens.py: the digest rewriting and the change table."""
import hashlib
import importlib.util

from conftest import DATA_DIR

spec = importlib.util.spec_from_file_location("gen_goldens", DATA_DIR / "gen_goldens.py")
gen_goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen_goldens)


def test_a_sha256_file_keeps_its_comments_and_order_and_names_what_changed(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "a.txt").write_bytes(b"a\n")
    (tmp_path / "out" / "b.txt").write_bytes(b"b\n")
    a, b = (hashlib.sha256(data).hexdigest() for data in (b"a\n", b"b\n"))
    pinned = tmp_path / "pinned.sha256"
    pinned.write_text(f"# header\n{'0' * 64}  out/b.txt\n{a}  out/a.txt\n", encoding="utf-8")
    assert gen_goldens.rewrite_sha256_file(pinned, tmp_path) == ["out/b.txt"]
    assert pinned.read_text(encoding="utf-8") == f"# header\n{b}  out/b.txt\n{a}  out/a.txt\n"
    assert gen_goldens.rewrite_sha256_file(pinned, tmp_path) == []


def test_the_change_table_holds_only_the_values_that_differ():
    old = {"config hash": "11e51f6d5144", "actual-1 revenue_usd": "9,076,313.95", "forest mae": "1.5"}
    new = {"config hash": "a0bcc05b373b", "actual-1 revenue_usd": "9,076,313.95", "lstm mae": "2.5"}
    assert gen_goldens.change_table(old, new) == [
        ("config hash", "11e51f6d5144", "a0bcc05b373b"),
        ("forest mae", "1.5", "-"),
        ("lstm mae", "-", "2.5"),
    ]
    assert gen_goldens.change_table(old, old) == []
