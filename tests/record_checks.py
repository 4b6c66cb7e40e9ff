"""Shared checks of the package's immutable records: construction, field-wise
equality, repr, read-only fields, copies, ``_replace`` and ``_asdict``, and
the TypeError an unknown or missing keyword raises."""

import copy
import inspect
import pickle

import pytest


def check_record(cls, args: tuple, kwargs: dict, changed: dict) -> None:
    """``args`` and ``kwargs`` build the same record by position and by
    keyword; ``changed`` gives other values for some fields."""
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    for name, value in kwargs.items():
        assert getattr(b, name) == value
    other = cls(**{**kwargs, **changed})
    assert other != a and not other == a

    text = repr(a)
    assert text.startswith(f"{cls.__name__}(")
    for name in kwargs:
        assert f"{name}=" in text

    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert a._replace() == a and a._replace(**changed) == other
    assert list(a._asdict().items()) == [(name, getattr(a, name)) for name in a._fields]

    with pytest.raises(TypeError):
        cls(**kwargs, not_a_field=1)
    first, *_ = kwargs
    # a record whose every field has a default builds without its first one
    if inspect.signature(cls).parameters[first].default is inspect.Parameter.empty:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != first})
