"""Type system for the OpenCL C subset.

Only what the benchmark kernels and the generated perforation code need:
scalar integer/floating types, pointers qualified with an OpenCL address
space, and fixed-size arrays (used for ``__constant`` filter coefficients
and ``__local`` tiles).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TypeError_


class AddressSpace:
    """OpenCL address-space qualifiers (normalised, without underscores)."""

    GLOBAL = "global"
    LOCAL = "local"
    CONSTANT = "constant"
    PRIVATE = "private"

    ALL = (GLOBAL, LOCAL, CONSTANT, PRIVATE)

    _ALIASES = {
        "__global": GLOBAL,
        "global": GLOBAL,
        "__local": LOCAL,
        "local": LOCAL,
        "__constant": CONSTANT,
        "constant": CONSTANT,
        "__private": PRIVATE,
        "private": PRIVATE,
    }

    @classmethod
    def normalize(cls, text: str) -> str:
        try:
            return cls._ALIASES[text]
        except KeyError as exc:
            raise TypeError_(f"unknown address space {text!r}") from exc


@dataclass(frozen=True)
class Type:
    """Base class for all types."""

    def is_scalar(self) -> bool:
        return False

    def is_pointer(self) -> bool:
        return False

    def is_array(self) -> bool:
        return False


@dataclass(frozen=True)
class ScalarType(Type):
    """A scalar type such as ``int`` or ``float``."""

    name: str

    _FLOAT_NAMES = ("float", "double")
    _INT_NAMES = ("int", "uint", "long", "short", "ushort", "char", "uchar", "size_t", "bool")

    def is_scalar(self) -> bool:
        return True

    @property
    def is_float(self) -> bool:
        return self.name in self._FLOAT_NAMES

    @property
    def is_integer(self) -> bool:
        return self.name in self._INT_NAMES

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(Type):
    """A pointer into an OpenCL address space."""

    pointee: Type
    address_space: str = AddressSpace.GLOBAL
    is_const: bool = False

    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        const = "const " if self.is_const else ""
        return f"__{self.address_space} {const}{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    """A fixed-size array, e.g. a ``__constant`` coefficient table."""

    element: Type
    length: int
    address_space: str = AddressSpace.PRIVATE

    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


VOID = ScalarType("void")
INT = ScalarType("int")
UINT = ScalarType("uint")
LONG = ScalarType("long")
FLOAT = ScalarType("float")
DOUBLE = ScalarType("double")
BOOL = ScalarType("bool")
SIZE_T = ScalarType("size_t")

_SCALARS = {
    "void": VOID,
    "int": INT,
    "uint": UINT,
    "long": LONG,
    "float": FLOAT,
    "double": DOUBLE,
    "bool": BOOL,
    "size_t": SIZE_T,
    "char": ScalarType("char"),
    "uchar": ScalarType("uchar"),
    "short": ScalarType("short"),
    "ushort": ScalarType("ushort"),
}


def scalar(name: str) -> ScalarType:
    """Look up a scalar type by its OpenCL C name."""
    try:
        return _SCALARS[name]
    except KeyError as exc:
        raise TypeError_(f"unknown scalar type {name!r}") from exc


def is_type_name(name: str) -> bool:
    """Whether ``name`` is a scalar type keyword of the subset."""
    return name in _SCALARS


def common_type(left: Type, right: Type) -> Type:
    """Usual arithmetic conversions (simplified): float wins over int;
    wider integer wins over narrower."""
    if not (isinstance(left, ScalarType) and isinstance(right, ScalarType)):
        raise TypeError_(f"cannot combine non-scalar types {left} and {right}")
    if left.name == "double" or right.name == "double":
        return DOUBLE
    if left.is_float or right.is_float:
        return FLOAT
    if left.name in ("long", "size_t") or right.name in ("long", "size_t"):
        return LONG
    return INT
