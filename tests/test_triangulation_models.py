"""The chord model (disc.py) and the surface model (surface.py) agree.

Every triangulation of the disc with n = 3..8 marked points is reached
by breadth-first flips from the fan triangulation.  Surface point p is
chord endpoint p + 1, and both models keep arc j at index j across a
flip, so the matrices and seeds must agree entry by entry.
"""

import pytest

from qskein import disc
from qskein import surface as surf

CATALAN = {3: 1, 4: 2, 5: 5, 6: 14, 7: 42, 8: 132}


def chords_of(s):
    n = s.n_points
    return tuple(disc.normalize_chord(n, (a + 1, b + 1)) for a, b in (arc.ends for arc in s.arcs))


def all_surfaces(n):
    """Every triangulation of the n-gon once, as a surface, by flips."""
    start = surf.build_disc(n)
    seen = {frozenset(chords_of(start))}
    queue = [start]
    for s in queue:
        for j in s.internal_arcs():
            t = surf.flip(s, j)
            key = frozenset(chords_of(t))
            if key not in seen:
                seen.add(key)
                queue.append(t)
    return queue


@pytest.mark.parametrize("n", sorted(CATALAN))
def test_chord_and_surface_models_agree(n):
    surfaces = all_surfaces(n)
    assert len(surfaces) == CATALAN[n]
    for s in surfaces:
        arcs = chords_of(s)
        assert disc.lambda_matrix_chords(n, arcs) == surf.lambda_matrix(s)
        assert disc.q_matrix_chords(n, arcs) == surf.q_matrix(s)
        chord_seed = disc.triangulation_seed(n, arcs)
        surface_seed = surf.to_seed(s)
        assert chord_seed.b == surface_seed.b
        assert chord_seed.lam == surface_seed.lam
        assert chord_seed.ex == surface_seed.ex
        for j in s.internal_arcs():
            flipped, new = disc.flip_diagonal(n, arcs, arcs[j])
            assert flipped == chords_of(surf.flip(s, j))
            assert flipped[j] == new
