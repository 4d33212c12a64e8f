"""The config reader: every config object is read against the signature of
the callable that builds it. Its keys are the callable's parameters after
the leading ones the caller supplies (such as the space), named as in
``KEYS`` where a name cannot be a key; a parameter without a default is a
required key, and any other key is an error. Each signature is read once.

A parameter's annotation picks the reader of its value: ``float`` a JSON
number with a finite float value (not a bool, a string, the NaN and
Infinity tokens that Python's json accepts, or an integer beyond the float
range), ``int`` an exact integer (an int, or a float with an integer
value), ``str`` a nonempty string, ``dict`` an object its own table reads
later, ``Any`` any value, ``ModelSpace`` a space (the points and sets after
it live there), ``SpacePoint`` a point whose coordinates are numbers,
``ConvexSubset`` a set, ``list[X]`` a nonempty list of X, ``dict[str, X]``
a nonempty object of X, ``X | None`` X or null.
Other names are readers in ``READERS``, which the command line extends.
``pick`` chooses the table entry an object names by a discriminator key.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections.abc import Mapping
from typing import Any, Callable

from .errors import ConfigError, UnsupportedOperationError
from .geometry import (Ball, ConvexSubset, Euclidean, Halfspace, Hyperboloid, ModelSpace, Segment,
                       SpacePoint, Spider, WholeSpace, integral)

# parameter name -> its config key, where the two differ
KEYS = {"lam": "lambda", "cset": "set", "num_legs": "legs"}

# reader(value, key, ctx, space): ``value`` of ``key`` in the object ``ctx``
Reader = Callable[[Any, str, str, "ModelSpace | None"], Any]


def _wrong(value: Any, key: str, ctx: str, what: str) -> ConfigError:
    return ConfigError(f"{key!r} in {ctx} must be {what}, got {value!r}")


def _is_number(v: Any) -> bool:  # a JSON number
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _checked(what: str, convert: Callable[[Any], Any]) -> Reader:
    """The reader of the values that ``convert`` maps to something other
    than None; any other value is not ``what``."""
    def read_value(v, key, ctx, space):
        out = convert(v)
        if out is None:
            raise _wrong(v, key, ctx, what)
        return out
    return read_value


READERS: dict[str, Reader] = {
    "float": _checked("a finite number", lambda v: float(v) if _is_number(v)
                      and abs(v) <= sys.float_info.max else None),
    "int": _checked("an integer", lambda v: integral(v) if _is_number(v) else None),
    "str": _checked("a nonempty string", lambda v: v if isinstance(v, str) and v else None),
    "dict": _checked("an object", lambda v: v if isinstance(v, Mapping) else None),
    "Any": lambda v, key, ctx, space: v,
    "ModelSpace": lambda v, key, ctx, space: space_from_config(v, key, ctx),
    "SpacePoint": lambda v, key, ctx, space: point_from_config(space, v, key, ctx),
    "ConvexSubset": lambda v, key, ctx, space: set_from_config(space, v, key, ctx),
}


def _reader(annotation: Any) -> Reader:
    if not isinstance(annotation, str):
        raise TypeError(f"a config parameter needs a string annotation, got {annotation!r}")
    if annotation.endswith(" | None"):
        inner = _reader(annotation[:-len(" | None")])
        return lambda v, key, ctx, space: None if v is None else inner(v, key, ctx, space)
    if annotation.startswith(("list[", "dict[str, ")):
        is_list = annotation.startswith("list[")
        inner = _reader(annotation[annotation.index("[") + 1:-1].removeprefix("str, "))

        def many(v, key, ctx, space):
            if not (isinstance(v, list if is_list else Mapping) and v):
                raise _wrong(v, key, ctx, "a nonempty list" if is_list else "a nonempty object")
            if is_list:
                return [inner(x, f"{key}[{i}]", ctx, space) for i, x in enumerate(v)]
            return {k: inner(x, k, f"{key!r} in {ctx}", space) for k, x in v.items()}
        return many
    return READERS[annotation]


@functools.cache
def params(fn: Callable, skip: int = 0) -> tuple[tuple[str, str, bool, str, Reader], ...]:
    """(key, parameter name, required, annotation, reader) for each parameter
    of ``fn`` after the first ``skip``: the table ``read`` reads an object by."""
    return tuple((KEYS.get(p.name, p.name), p.name, p.default is p.empty, p.annotation,
                  _reader(p.annotation))
                 for p in list(inspect.signature(fn).parameters.values())[skip:])


def read(fn: Callable, desc: Any, ctx: str, space: ModelSpace | None = None, skip: int = 0,
         known: tuple[str, ...] = ()) -> dict[str, Any]:
    """The keyword arguments of ``fn`` that the config object ``desc`` gives,
    read in the order of ``fn``'s parameters after the first ``skip``;
    ``known`` are the keys of ``desc`` its caller has read (discriminators).
    A key that ``desc`` lacks is left to ``fn``'s default."""
    if not isinstance(desc, Mapping):
        raise ConfigError(f"{ctx} must be an object, got {desc!r}")
    table = params(fn, skip)
    present = [row for row in table if row[0] in desc]
    if len(present) + sum(key in desc for key in known) < len(desc):
        accepted = [*known, *(key for key, *_ in table)]
        raise ConfigError(f"unknown keys {sorted(set(desc) - set(accepted))} in {ctx}; "
                          f"accepted keys: {accepted}")
    missing = [key for key, _, required, *_ in table if required and key not in desc]
    if missing:
        what = f"key {missing[0]!r}" if len(missing) == 1 else f"keys {missing}"
        raise ConfigError(f"missing {what} in {ctx}")
    kwargs = {}
    for key, name, _, annotation, reader in present:
        kwargs[name] = reader(desc[key], key, ctx, space)
        if annotation == "ModelSpace":
            space = kwargs[name]
    return kwargs


def reads(fn: Callable) -> Reader:
    """The reader of an object whose keys are the parameters of ``fn``,
    which builds the value from them."""
    return lambda v, key, ctx, space: fn(**read(fn, v, key, space))


def pick(table: Mapping[str, Any], desc: Any, key: str, ctx: str, noun: str,
         by: str | None = "kind") -> tuple[str, Any, str]:
    """The name and entry of ``table`` that the object ``desc`` (the value of
    ``key`` in ``ctx``) names by its ``by`` key, or by its single key when
    ``by`` is None, and the context its other keys are read in."""
    if not isinstance(desc, Mapping):
        raise _wrong(desc, key, ctx, "an object")
    if by is None:
        name = next(iter(desc)) if len(desc) == 1 else sorted(desc)
    elif by not in desc:
        raise ConfigError(f"missing key {by!r} in {noun}; known: {sorted(table)}")
    else:
        name = desc[by]
    what = noun if by in (None, "name") else f"{noun} {by}"
    if not (isinstance(name, str) and name in table):
        raise ConfigError(f"unknown {what} {name!r}; known: {sorted(table)}")
    return name, table[name], (f"{noun} {name!r}" if by in (None, "name")
                               else f"{noun} of {by} {name!r}")


# ---------------------------------------------------------------------------
# spaces, points and sets
# ---------------------------------------------------------------------------

_SPACES = {"euclidean": Euclidean, "hyperboloid": Hyperboloid, "spider": Spider}


def space_from_config(desc: Any, key: str = "space", ctx: str = "config") -> ModelSpace:
    """A space from its config object, e.g. {"kind": "hyperboloid", "dim": 2}
    or {"kind": "spider", "legs": 3}."""
    _, cls, sub = pick(_SPACES, desc, key, ctx, "space")
    return cls(**read(cls, desc, sub, known=("kind",)))


def space_to_config(space: ModelSpace) -> dict:
    kind = next(k for k, cls in _SPACES.items() if isinstance(space, cls))
    return {"kind": kind, **{key: getattr(space, name) for key, name, *_ in params(_SPACES[kind])}}


def _spider_point(space: Spider, leg: int, radius: float) -> SpacePoint:
    return space.point((leg, radius))


# the spaces whose points a config may give as an object, and their builders
_POINT_OBJECTS = {Hyperboloid: Hyperboloid.from_spatial, Spider: _spider_point}
# the coordinates of a point, and a halfspace's normal
_COORDINATES = READERS["np.ndarray"] = _reader("list[float]")


def point_from_config(space: ModelSpace, desc: Any, key: str = "point",
                      ctx: str = "config") -> SpacePoint:
    """Points in configs: a list of coordinates (ambient; ``[leg, radius]``
    for the spider), {"spatial": [...]} for the hyperboloid, or
    {"leg": i, "radius": r} for the spider."""
    entry = next((f for cls, f in _POINT_OBJECTS.items() if isinstance(space, cls)), None)
    if isinstance(desc, Mapping) and entry is not None:
        return entry(space, **read(entry, desc, f"{key!r} in {ctx}", space, skip=1))
    return space.point(_COORDINATES(desc, key, ctx, space))


def point_to_config(space: ModelSpace, p: SpacePoint):
    if isinstance(space, Spider):
        return {"leg": Spider.leg_of(p), "radius": Spider.radius_of(p)}
    return list(p.xs)


# set kind -> its class; a whole space and a halfspace take the space's id first
_SETS = {"whole_space": WholeSpace, "ball": Ball, "segment": Segment, "halfspace": Halfspace}


def set_from_config(space: ModelSpace, desc: Any, key: str = "set",
                    ctx: str = "config") -> ConvexSubset:
    """Sets in configs: {"kind": "whole_space"}, a ball (``center``,
    ``radius``), a segment (``a``, ``b``) or a Euclidean halfspace
    (``normal``, ``offset``)."""
    _, cls, sub = pick(_SETS, desc, key, ctx, "set")
    if cls is Halfspace and not isinstance(space, Euclidean):
        raise UnsupportedOperationError("halfspaces exist only in Euclidean spaces")
    by_id = cls in (WholeSpace, Halfspace)
    kwargs = read(cls, desc, sub, space, skip=int(by_id), known=("kind",))
    return cls(space.space_id, **kwargs) if by_id else cls(**kwargs)
