"""atomic_write_text: all of the text, or nothing, and no temp file left."""

from __future__ import annotations

import os

import pytest

from repro.atomicio import atomic_write_text


def test_writes_and_replaces_leaving_only_the_target(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_text(path, "first\n")
    atomic_write_text(str(path), "sécond\n")  # str or PathLike, UTF-8
    assert path.read_bytes() == "sécond\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.json"]


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    atomic_write_text(path, "kept\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(path, "lost\n")
    with pytest.raises(TypeError):
        atomic_write_text(path, b"not text")
    assert path.read_text(encoding="utf-8") == "kept\n"
    assert os.listdir(tmp_path) == ["out.json"]
