"""Count NumPy's array-data allocations, a test helper.

``with numpy_allocations() as sizes:`` records in ``sizes`` the byte size of
every array-data allocation NumPy makes in the block.  It installs a NumPy
memory handler (NEP 49) that records each size and passes the call on to
the default handler; frees go to the default handler's own C function, so
an array may outlive the block.  NumPy keeps the handler in a context
variable: allocations on threads started inside the block are not counted.

The handler is reached through NumPy's C-API table at the slots of
PyDataMem_SetHandler and PyDataMem_GetHandler, checked on NumPy 2.4; the
block asserts that NumPy reports the counting handler in place, and the
previous one again on leaving, so a NumPy whose table differs fails the
test that uses it.
"""

import contextlib
import ctypes

try:
    from numpy._core import _multiarray_umath
except ImportError:  # NumPy 1
    from numpy.core import _multiarray_umath

# slots of PyDataMem_SetHandler and PyDataMem_GetHandler in NumPy's C-API
# table, fixed by its ABI since NumPy 1.22 (checked on 2.4)
_SET_HANDLER, _GET_HANDLER = 304, 305

_MALLOC = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t)
_CALLOC = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t)
_REALLOC = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t)
_FREE = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t)


class _Allocator(ctypes.Structure):
    _fields_ = [("ctx", ctypes.c_void_p), ("malloc", _MALLOC), ("calloc", _CALLOC),
                ("realloc", _REALLOC), ("free", _FREE)]


class _Handler(ctypes.Structure):
    _fields_ = [("name", ctypes.c_char * 127), ("version", ctypes.c_uint8),
                ("allocator", _Allocator)]


_api = ctypes.pythonapi
_api.PyCapsule_GetPointer.restype = ctypes.c_void_p
_api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_api.PyCapsule_New.restype = ctypes.py_object
_api.PyCapsule_New.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p]
_table = ctypes.cast(_api.PyCapsule_GetPointer(_multiarray_umath._ARRAY_API, None),
                     ctypes.POINTER(ctypes.c_void_p))
_set_handler = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.py_object)(_table[_SET_HANDLER])
_get_handler = ctypes.PYFUNCTYPE(ctypes.py_object)(_table[_GET_HANDLER])

_NAME = b"mem_handler"
_default = _Handler.from_address(_api.PyCapsule_GetPointer(_get_handler(), _NAME)).allocator


def _calls(kind, function):
    """The default handler's function, called with the GIL held: NumPy may
    call the handler with the GIL released, and the callbacks hold it."""
    prototype = ctypes.PYFUNCTYPE(kind._restype_, *kind._argtypes_)
    return prototype(ctypes.cast(function, ctypes.c_void_p).value)


_default_malloc = _calls(_MALLOC, _default.malloc)
_default_calloc = _calls(_CALLOC, _default.calloc)
_default_realloc = _calls(_REALLOC, _default.realloc)
_sizes = []


@_MALLOC
def _malloc(ctx, size):
    _sizes.append(size)
    return _default_malloc(ctx, size)


@_CALLOC
def _calloc(ctx, nelem, elsize):
    _sizes.append(nelem * elsize)
    return _default_calloc(ctx, nelem, elsize)


@_REALLOC
def _realloc(ctx, ptr, size):
    _sizes.append(size)
    return _default_realloc(ctx, ptr, size)


_handler = _Handler(b"counting", 1, _Allocator(_default.ctx, _malloc, _calloc, _realloc,
                                                _default.free))
_capsule = _api.PyCapsule_New(ctypes.addressof(_handler), _NAME, None)
# an array made under the handler frees through it, perhaps at interpreter
# exit: the handler, its callbacks and the capsule's name are never freed
for _obj in (_handler, _malloc, _calloc, _realloc, _NAME, _capsule):
    _api.Py_IncRef(ctypes.py_object(_obj))


@contextlib.contextmanager
def numpy_allocations():
    global _sizes
    _sizes = sizes = []
    before = _multiarray_umath.get_handler_name()
    previous = _set_handler(_capsule)
    try:
        assert _multiarray_umath.get_handler_name() == "counting", "handler not installed"
        yield sizes
    finally:
        _set_handler(previous)
        assert _multiarray_umath.get_handler_name() == before, "handler not restored"
