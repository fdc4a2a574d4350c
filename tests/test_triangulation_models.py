"""Chord lists (disc.py) and surfaces are views of one triangulation
(surface.from_chords and its inverse surface.to_chords).

Every triangulation of the disc with n = 3..8 marked points is reached
by breadth-first flips from the fan triangulation.  Surface point p is
chord endpoint p + 1, and a flip keeps arc j at index j, so the chord
list of each surface must rebuild that very surface, a flip must change
that list at index j only, and the chord-level seeds must match the
surface ones entry by entry.
"""

import itertools
import math
import random

import pytest

from qskein import disc
from qskein import surface as surf
from qskein.disc import DiscElement

FAN5 = tuple(sorted(disc.boundary_chords(5) + [(1, 3), (1, 4)]))

CROSSING = r"chords \(1, 3\) and \(2, 4\) cross"

NOT_TRIANGULATIONS = {  # chords, and how from_chords rejects them
    "crossing pair": (disc.boundary_chords(5) + [(1, 3), (2, 4)], CROSSING),
    "missing diagonal": (disc.boundary_chords(5) + [(1, 3)], "5-gon has 7 chords, got 6"),
    "repeated arc": (disc.boundary_chords(5) + [(1, 3), (1, 3)], "repeated chords"),
    "diagonals only": ([(1, 3), (2, 4)], CROSSING),
}


def all_surfaces(n):
    """Every triangulation of the n-gon once, as a surface, by flips."""
    start = surf.build_disc(n)
    seen = {frozenset(surf.to_chords(start))}
    queue = [start]
    for s in queue:
        for j in s.internal_arcs():
            t = surf.flip(s, j)
            key = frozenset(surf.to_chords(t))
            if key not in seen:
                seen.add(key)
                queue.append(t)
    return queue


def assert_chord_and_surface_models_agree(n):
    """Every triangulation of the n-gon, reached by surface flips, reads
    back through to_chords and from_chords to itself and its seed; a flip
    of arc j changes chord j only; and to_chords inverts from_chords on
    every enumerated chord list."""
    surfaces = all_surfaces(n)
    assert len(surfaces) == math.comb(2 * n - 4, n - 2) // (n - 1)
    for s in surfaces:
        arcs = surf.to_chords(s)
        assert surf.from_chords(n, arcs) == s
        chord_seed = disc.triangulation_seed(n, arcs)
        surface_seed = surf.to_seed(s)
        assert chord_seed.b == surface_seed.b
        assert chord_seed.lam == surface_seed.lam
        assert chord_seed.ex == surface_seed.ex
        for j in s.internal_arcs():
            flipped = surf.to_chords(surf.flip(s, j))
            assert flipped[:j] + flipped[j + 1 :] == arcs[:j] + arcs[j + 1 :]
            assert flipped[j] != arcs[j]
    for delta in disc.enumerate_triangulations(n):
        assert surf.to_chords(surf.from_chords(n, delta)) == delta


@pytest.mark.parametrize("n", range(3, 9))
def test_chord_and_surface_models_agree(n):
    assert_chord_and_surface_models_agree(n)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_shuffled_arcs_permute_the_matrices(n):
    rng = random.Random(n)
    for delta in disc.enumerate_triangulations(n):
        order = list(range(len(delta)))
        rng.shuffle(order)
        base = surf.from_chords(n, delta)
        shuffled = surf.from_chords(n, [delta[k] for k in order])
        for matrix in (surf.lambda_matrix, surf.q_matrix):
            m, ms = matrix(base), matrix(shuffled)
            assert ms == [[m[a][b] for b in order] for a in order]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exactly_the_triangulations_are_accepted(n):
    triangulations = {frozenset(d) for d in disc.enumerate_triangulations(n)}
    for arcs in itertools.combinations(disc.all_chords(n), 2 * n - 3):
        try:
            surf.from_chords(n, arcs)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (frozenset(arcs) in triangulations), arcs


@pytest.mark.parametrize("case", sorted(NOT_TRIANGULATIONS))
def test_non_triangulations_are_rejected(case):
    arcs, message = NOT_TRIANGULATIONS[case]
    with pytest.raises(ValueError, match=message):
        surf.from_chords(5, arcs)
    with pytest.raises(ValueError):
        disc.mu_delta(5, arcs, DiscElement.basis(5, [(2, 4)]))
    with pytest.raises(ValueError):
        disc.triangulation_seed(5, arcs)
    with pytest.raises(ValueError):
        disc.expand_laurent(DiscElement.basis(5, [(2, 4)]), arcs)
    with pytest.raises(ValueError):
        disc.expand_laurent(DiscElement.zero(5), arcs)


@pytest.mark.parametrize("arcs", [[(0, 2)], [(1, 6)], [(2, 2)]])
def test_chords_out_of_range_are_rejected(arcs):
    with pytest.raises(ValueError):
        surf.from_chords(5, list(FAN5) + arcs)


def test_fewer_than_three_points_rejected():
    with pytest.raises(ValueError):
        surf.from_chords(2, [(1, 2)])
