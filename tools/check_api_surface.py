#!/usr/bin/env python3
"""Guard the public API surface against silent signature drift.

Usage::

    PYTHONPATH=src python tools/check_api_surface.py            # check
    PYTHONPATH=src python tools/check_api_surface.py --update   # re-snapshot

The root cause of the "kwargs drift" bug class this repo kept hitting:
six parallel entry points whose keyword lists (``algorithm``, ``cover``,
``attribute_order``, ``backend``, ``database``, ...) were edited by hand
and quietly diverged PR after PR.  This tool snapshots the *signature*
of every export in ``repro.__all__`` — functions and methods via
``inspect.signature``, classes as their constructor plus every public
method — into ``tools/api_surface.json``, and fails (exit 1) when the
live package no longer matches, printing exactly what was added,
removed, or changed.

Intentional API changes are a one-command re-snapshot (``--update``)
whose diff then shows up in code review — which is the point: signature
changes become *visible*, never silent.

Run by CI (the docs job, pinned to one Python version so signature
rendering is stable).
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import re
import sys

SNAPSHOT_PATH = pathlib.Path(__file__).parent / "api_surface.json"

#: Memory addresses in default-value reprs would make snapshots flap.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _signature(obj) -> str:
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "<no signature>"
    return _ADDRESS.sub("", text)


def _members(cls) -> dict:
    """``vars(cls)`` over the class and every base this package defines
    (a view inherited from a shared base is as public as its own)."""
    members: dict = {}
    for klass in reversed(cls.__mro__):
        if klass.__module__.split(".")[0] == "repro":
            members.update(vars(klass))
    return members


def _class_surface(cls) -> dict:
    """Constructor plus public methods/properties of an exported class."""
    surface = {"__init__": _signature(cls)}
    for name, member in sorted(_members(cls).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member):
            surface[name] = _signature(member)
        elif isinstance(member, (classmethod, staticmethod)):
            surface[name] = _signature(member.__func__)
        elif isinstance(member, property):
            surface[name] = "<property>"
    # Dataclasses keep their public fields in __annotations__; record
    # the names so adding/removing a field is drift too.
    fields = getattr(cls, "__dataclass_fields__", None)
    if fields:
        surface["<fields>"] = ", ".join(
            name for name in fields if not name.startswith("_")
        )
    return surface


def current_surface() -> dict:
    import repro

    surface: dict[str, object] = {}
    for name in sorted(repro.__all__):
        obj = getattr(repro, name)
        if inspect.isclass(obj):
            surface[name] = _class_surface(obj)
        elif callable(obj):
            surface[name] = _signature(obj)
        else:
            surface[name] = f"<data> {obj!r}"
    return surface


def _flatten(surface: dict) -> dict[str, str]:
    flat: dict[str, str] = {}
    for name, value in surface.items():
        if isinstance(value, dict):
            for member, sig in value.items():
                flat[f"{name}.{member}"] = sig
        else:
            flat[name] = value
    return flat


def diff(snapshot: dict, live: dict) -> list[str]:
    old, new = _flatten(snapshot), _flatten(live)
    problems = []
    for key in sorted(set(old) - set(new)):
        problems.append(f"removed: {key} {old[key]}")
    for key in sorted(set(new) - set(old)):
        problems.append(f"added: {key} {new[key]}")
    for key in sorted(set(old) & set(new)):
        if old[key] != new[key]:
            problems.append(
                f"changed: {key}\n  snapshot: {old[key]}\n  live:     {new[key]}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-snapshot the live surface into tools/api_surface.json",
    )
    args = parser.parse_args(argv)
    live = current_surface()
    if args.update:
        SNAPSHOT_PATH.write_text(
            json.dumps(live, indent=2, sort_keys=True) + "\n"
        )
        print(f"{SNAPSHOT_PATH}: snapshot updated ({len(live)} exports)")
        return 0
    if not SNAPSHOT_PATH.exists():
        print(
            f"{SNAPSHOT_PATH} missing; run with --update to create it",
            file=sys.stderr,
        )
        return 1
    snapshot = json.loads(SNAPSHOT_PATH.read_text())
    problems = diff(snapshot, live)
    if problems:
        print(
            "public API surface drifted from tools/api_surface.json "
            "(intentional? re-run with --update and commit the diff):",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"api surface ok ({len(live)} exports match the snapshot)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
