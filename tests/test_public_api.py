import re
import types
from pathlib import Path

import dbsadam

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_exports() -> dict[str, str]:
    """README's Public API list as name -> the module its bullet names."""
    section = README.read_text(encoding="utf-8").split("## Public API", 1)[1].split("\n## ", 1)[0]
    bullets = section.strip().split("\n\n", 1)[1]
    listed = {}
    for bullet in bullets.split("\n- "):
        module, names = bullet.lstrip("- ").split(":", 1)
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, f"{name} listed twice"
            listed[name] = f"dbsadam.{module}"
    return listed


def test_package_exports_exactly_the_readme_list():
    exported = {
        name for name, value in vars(dbsadam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(documented_exports())


def test_each_export_lives_in_the_module_its_bullet_names():
    for name, module in documented_exports().items():
        assert getattr(dbsadam, name).__module__ == module, name
