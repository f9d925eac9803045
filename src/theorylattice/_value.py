"""The one base of the package's immutable value classes.

A subclass names its constructor's parameters, in order, in ``_fields``; a
class attribute of a field's name is its default.  The constructor stores
them and calls the ``_check`` hook.  Instances of one class are equal when
their ``_compared`` fields are, and hash by them; ``repr`` shows the
``_shown`` fields; both default to ``_fields``.  A subclass with its own
``__eq__`` keeps the inherited hash.  Attributes cannot be set or deleted;
the package writes its own past that with ``object.__setattr__`` or, on a
slotted node, through the slot descriptors.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = vars(cls)
        if "_fields" in own:
            cls._shown = own.get("_shown", cls._fields)
            cls._key = attrgetter(*own.get("_compared", cls._fields))
            cls._defaults = {name: own[name] for name in cls._fields if name in own}
        if "__eq__" in own and own.get("__hash__") is None:
            del cls.__hash__  # Python unsets the hash of a class with its own __eq__; inherit it

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
        if len(args) > len(fields) or len(values) < len(fields) or kwargs.keys() - {*fields[len(args):]}:
            got = f"{len(args)} positional and keywords {sorted(kwargs)}"
            raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}; got {got}")
        for name in fields:  # object.__setattr__ keeps the values inline, where reads are fastest
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"
