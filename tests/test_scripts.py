import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SOURCES = sorted([*(ROOT / "src" / "abflow").glob("*.py"), *SCRIPTS.glob("*.py")])


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_portraits(tmp_path, capsys):
    assert load("make_portraits").run(tmp_path) == 0
    for name in ("portrait_parallel", "portrait_vortex"):
        assert (tmp_path / name / "portrait.svg").exists()
        assert (tmp_path / name / "summary.json").exists()
    assert 'class="sep"' in (tmp_path / "portrait_vortex" / "portrait.svg").read_text()


def test_artifact_digest_is_repeatable():
    digest = load("artifact_digest")
    first, second = digest.run(), digest.run()
    assert len(first) == len(digest.CALLS) >= 20
    assert [code for _, code, _ in first] == [digest.EXIT.get(label, 0) for label, _, _ in first]
    assert set(digest.EXIT) <= {label for label, _ in digest.CALLS}
    assert first == second
    commands = {label.split("/")[0] for label, _, _ in first}
    assert commands == {"eval", "stagnation", "portrait", "separatrix", "circulation",
                        "trajectory", "verify", "sweep"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_the_oldest_supported_python(path):
    # pyproject.toml declares requires-python = ">=3.10"
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
