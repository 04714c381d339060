"""Config bounds: every bounded field of every Section in src/sfuda rejects
the value just past its bound with the documented message, word for word,
and takes the bound itself."""

import importlib
import math
import pkgutil
from dataclasses import MISSING, fields

import numpy as np
import pytest

import sfuda
from sfuda.core import Section, field_bound
from sfuda.data import ShiftSpec
from sfuda.engine import DistConfig
from sfuda.head import HeadConfig, LoopConfig, TrainConfig
from sfuda.neighbors import NrcConfig

TINY = math.ulp(0.0)  # the least positive float


def _cases(cls, f):
    """(values that pass, [(value past the bound, message)]) of cls's field f,
    by its bound's documented wording."""
    ok, message = field_bound(cls, f.name)
    is_int = f.type.split(" | ")[0] == "int"
    if message == "{name} must be positive":
        return [1 if is_int else TINY], [(0 if is_int else 0.0, f"{f.name} must be positive")]
    if message == "{name} must be nonnegative":
        return [0 if is_int else 0.0], [(-1 if is_int else -TINY,
                                         f"{f.name} must be nonnegative")]
    if message == "{name} must lie in [0, 1)":
        return [0.0, math.nextafter(1.0, 0.0)], [(-TINY, f"{f.name} must lie in [0, 1)"),
                                                 (1.0, f"{f.name} must lie in [0, 1)")]
    assert message == "unknown {name} {value!r}", f"{cls.__name__}.{f.name}: {message!r}"
    return list(ok.__self__), [("bogus", f"unknown {f.name} 'bogus'")]


def _bounded_fields():
    """(section, field) of every bounded field of every Section in src/sfuda."""
    for info in pkgutil.iter_modules(sfuda.__path__):
        importlib.import_module(f"sfuda.{info.name}")
    todo, sections = Section.__subclasses__(), set()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("sfuda."):
            sections.add(cls)
    return [(cls, f) for cls in sorted(sections, key=lambda c: c.__name__)
            for f in fields(cls) if field_bound(cls, f.name) is not None]


BOUNDED = _bounded_fields()


def _build(cls, **values):
    """cls with values, each required field given the first value it takes."""
    required = {f.name: _cases(cls, f)[0][0] for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    return cls(**{**required, **values})


def test_the_walk_finds_every_config_section():
    found = {cls.__name__ for cls, _ in BOUNDED}
    assert found == {"HeadConfig", "LoopConfig", "TrainConfig", "ShotConfig", "PcsrConfig",
                     "NrcConfig", "AadConfig", "DistConfig", "ShiftSpec"}


@pytest.mark.parametrize("cls, f", BOUNDED, ids=[f"{c.__name__}.{f.name}" for c, f in BOUNDED])
def test_a_bounded_field_takes_its_bound_and_words_what_breaks_it(cls, f):
    passing, breaking = _cases(cls, f)
    for value in passing:
        assert getattr(_build(cls, **{f.name: value}), f.name) == value
    for value, message in breaking:
        with pytest.raises(ValueError) as err:
            _build(cls, **{f.name: value})
        assert str(err.value) == message


def test_a_redeclared_default_keeps_its_bases_bound():
    assert TrainConfig().epochs == 30
    with pytest.raises(ValueError) as err:
        TrainConfig(epochs=0)
    assert str(err.value) == "epochs must be positive"


def test_an_unset_optional_passes_its_bound():
    assert TrainConfig(grad_clip=None).grad_clip is None


def test_dist_config_is_a_section():
    with pytest.raises(ValueError) as err:
        DistConfig(0, 64)
    assert str(err.value) == "workers must be positive"
    with pytest.raises(TypeError):
        DistConfig(2.5, 64)


@pytest.mark.parametrize("build, message", [
    (lambda: LoopConfig(epochs=0, batch_size=0, learning_rate=-1.0), "epochs must be positive"),
    (lambda: NrcConfig(K=0, KK=0, r=-1.0), "K must be positive"),
    (lambda: HeadConfig(0, 0, norm_kind="groupnorm"), "in_dim must be positive"),
    (lambda: HeadConfig(4, 3, norm_kind="groupnorm", activation="tanh"),
     "unknown norm_kind 'groupnorm'"),
    # a field's bound is checked right after its type, before a later field's type
    (lambda: LoopConfig(batch_size=0, momentum="x"), "batch_size must be positive"),
    # and its finiteness before its bound, for a numpy float too, bounded or not
    (lambda: TrainConfig(learning_rate=np.float32("nan")),
     "learning_rate must be finite, not nan"),
    (lambda: ShiftSpec(rotation_angle=np.float32("inf")),
     "rotation_angle must be finite, not inf"),
])
def test_the_first_field_at_fault_is_named(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
