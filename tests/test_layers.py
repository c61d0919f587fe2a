"""The package graph has no import cycles: every package imports first
in a fresh interpreter, the simulator loads nothing above the IR, and
the layout optimizer does not load the checks that gate its output."""

import functools
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SCRIPT = textwrap.dedent("""
    import importlib
    import importlib.util
    import json
    import pkgutil
    import sys

    import repro

    pipeline_path = importlib.util.find_spec(
        "repro.pipeline"
    ).submodule_search_locations

    def purge():
        for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[name]

    names = sorted(
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
        if info.name != "__main__"
    ) + sorted(
        f"repro.pipeline.{info.name}"
        for info in pkgutil.iter_modules(pipeline_path)
    )
    failures = {}
    for name in names:
        purge()
        try:
            importlib.import_module(name)
        except Exception as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    purge()
    import repro.sim
    loaded = sorted({m.split(".")[1] for m in sys.modules if m.startswith("repro.")})
    purge()
    import repro.layout
    layout_checks = sorted(m for m in sys.modules if m.startswith("repro.check"))
    print(json.dumps({
        "names": names, "failures": failures, "sim": loaded,
        "layout_checks": layout_checks,
    }))
""")

#: Layers above the simulator that ``import repro.sim`` must not load.
ABOVE_SIM = ("db", "execution", "progen", "workloads", "osmodel", "harness")


@functools.lru_cache(maxsize=None)
def _probe():
    import json

    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_package_imports_first_and_sim_stays_below_the_dbms():
    probe = _probe()
    assert "repro.pipeline.fanout" in probe["names"]
    assert "repro.sim" in probe["names"] and "repro.cache" in probe["names"]
    assert probe["failures"] == {}
    assert set(probe["sim"]) & set(ABOVE_SIM) == set()


def test_layout_loads_no_check_module():
    assert _probe()["layout_checks"] == []
