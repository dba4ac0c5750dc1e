"""The faults the tests inject into the library, each written once.

A fault is a triple ``(owner, name, wrap)``: the one seam ``owner.name`` it
patches, and ``wrap(real)``, which returns the faulty stand-in for the real
attribute.  A test injects faults with :func:`inject`::

    with inject(monkeypatch, faults.h1_plus_one()):
        ...

To add a fault that more than one test injects, write a factory here that
returns its triple, and take it from every such test.  A fault that one
test alone injects stays in that test, written as a triple when it goes
through :func:`inject`.  When a layer is renamed or rerouted, the seam of
each fault on it is one line here.
"""

from contextlib import contextmanager

from superchar import clear_caches, schur, verify


@contextmanager
def inject(monkeypatch, *faults):
    """Patch each fault's seam on clear caches; on exit undo monkeypatch and clear them again.

    A None in place of a fault is the healthy library.  The exit undoes every
    patch monkeypatch holds, those made before the block included, so no
    faulty value or spy outlives the block.
    """
    clear_caches()
    for owner, name, wrap in filter(None, faults):
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    try:
        yield
    finally:
        monkeypatch.undo()
        clear_caches()


def everywhere(X, Y, degmax):
    return True


def h1_plus_one(where=everywhere):
    """schur.h_list with 1 added to h_1 wherever where(X, Y, degmax) holds."""

    def wrap(real):
        def corrupted(X, Y, degmax):
            hs = list(real(X, Y, degmax))
            if len(hs) > 1 and where(X, Y, degmax):
                hs[1] = hs[1] + 1
            return tuple(hs)

        return corrupted

    return schur, "h_list", wrap


def _u1_plus_e1(real):
    def corrupted(sign, e):
        (d, u), *rest = real(sign, e)
        return ((d, u + e[1]), *rest)  # one coefficient of u_1 off by one

    return corrupted


# A series block factor with u_1 gaining e_1: over the e table of z's, and
# over the e table of the formal x's.
U1_IN_E_FACTOR = (schur, "_e_factor", _u1_plus_e1)
U1_IN_FORMAL_FACTOR = (schur, "_formal_factor", _u1_plus_e1)


def det_plus(c, owner=schur, size=None):
    """owner.det + c, on every matrix, or on the size x size ones alone."""

    def wrap(real):
        return lambda rows: real(rows) + (c if size in (None, len(rows)) else 0)

    return owner, "det", wrap


def det_plus_in_table_dets(c):
    """schur.det + c inside schur._table_dets alone: the Jacobi-Trudi determinants.

    Every other determinant, the bialternant oracle's alternants among them,
    keeps the true det.
    """
    _, _, shift = det_plus(c)

    def wrap(real):
        real_det = schur.det

        def corrupted(shapes, hs, entry):
            schur.det = shift(real_det)
            try:
                return real(shapes, hs, entry)
            finally:
                schur.det = real_det

        return corrupted

    return schur, "_table_dets", wrap


def entry_plus_h(rule, index):
    """The entry rule schur.<rule> with one more term, h_index(base, j), in every entry."""

    def wrap(real):
        return lambda base, j: (*real(base, j), (1, index(base, j)))

    return schur, rule, wrap


def monomial_h2_plus_one(where=lambda nx, ny: True):
    """verify._monomial_h, the Cauchy series guard's own h_k, plus 1 at k = 2 where where(nx, ny)."""

    def wrap(real):
        def corrupted(table, nx, ny, k):
            value = real(table, nx, ny, k)
            return value + 1 if k == 2 and where(nx, ny) else value

        return corrupted

    return verify, "_monomial_h", wrap
