import importlib
import pkgutil

import cemhelm


def test_every_public_name_exists():
    for info in pkgutil.iter_modules(cemhelm.__path__):
        module = importlib.import_module(f"cemhelm.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
