"""Every dotted ``repro.<pkg>.<name>`` the README and DESIGN name is
real: it imports as a module, or resolves as an attribute of one."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*){2,}")


def named_in_docs():
    return sorted(
        {name for doc in DOCS for name in DOTTED.findall((ROOT / doc).read_text())}
    )


def resolves(name: str) -> bool:
    parts = name.split(".")
    for split in range(len(parts), 1, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_name_some_modules():
    assert "repro.faults.campaign" in named_in_docs()


@pytest.mark.parametrize("name", named_in_docs())
def test_doc_name_resolves(name):
    assert resolves(name), f"{name} is neither a module nor a module attribute"
