"""The one base class of the package's immutable value types.

A subclass names its fields in ``__slots__``, a tuple in constructor order,
and may give defaults for trailing ones in ``_defaults``.  Instances are
built positionally or by keyword, compare equal when they are of the same
class with equal fields, hash as their fields do, refuse assignment and
print as ``Name(field=value, ...)``.  The hash is computed once per
instance.

A class whose fields need validating or normalising defines ``_check``, a
static method that takes the field values in order and returns the values
to store, or raises ValueError.

The standard library's frozen data classes would do the same, but importing
that module (and the ``inspect`` it pulls in) and generating the methods of
every class at import cost more than the rest of ``import qdissect``.
"""

from operator import attrgetter


class Value:
    # the hash, computed on first use: a tree of Values (the AST) would
    # otherwise rehash every subtree at each level that hashes its parent
    __slots__ = ("_hash",)
    _defaults = {}
    _check = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        # the slot descriptors' setters, which bypass __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        # the field values, as a tuple (a lone field's value by itself)
        cls._key = staticmethod(attrgetter(*fields) if fields else lambda self: ())

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        if self._check is not None:
            args = self._check(*args)
        # the evaluator builds a Series per operation; an index is cheaper than zip
        i = 0
        for set_field in setters:
            set_field(self, args[i])
            i += 1

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values from positional and keyword arguments and defaults."""
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} arguments, got {len(args)}")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # not hashed yet (a Series never is: its list refuses)
            h = hash(self._key(self))
            _set_hash(self, h)
            return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


_set_hash = Value._hash.__set__
