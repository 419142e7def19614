"""scripts/make_configs.py: regenerating the configs reproduces every
committed file under configs/ byte for byte."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _make_configs():
    spec = importlib.util.spec_from_file_location(
        "make_configs", ROOT / "scripts" / "make_configs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_regenerated_configs_match_the_committed_ones(tmp_path, monkeypatch):
    module = _make_configs()
    monkeypatch.setattr(module, "CONFIGS", tmp_path)
    module.main()
    committed, regenerated = _files(ROOT / "configs"), _files(tmp_path)
    assert regenerated.keys() == committed.keys()
    for name, data in committed.items():
        assert regenerated[name] == data, name
