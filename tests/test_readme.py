"""The README's library quickstart names only what the package exports."""

import os
import re

import boundary_forge

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def quickstart_names() -> set[str]:
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = {re.match(r"\w+", span).group()
             for span in re.findall(r"`([A-Za-z_]\w*)[^`]*`", prose)}
    imports = re.search(r"from boundary_forge import \((.*?)\)", section, re.S)
    names |= {name.strip() for name in imports.group(1).split(",")}
    return names


def test_quickstart_names_are_exported():
    names = quickstart_names()
    assert {"constrained_balance_form", "storage_balance_form",
            "skew_adjoint_structure"} <= names
    missing = sorted(n for n in names if not hasattr(boundary_forge, n))
    assert not missing, f"README quickstart names missing from the package: {missing}"
