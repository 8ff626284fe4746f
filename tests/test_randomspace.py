import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehybrid.errors import DomainError
from mehybrid.randomspace import (
    Decomposition,
    Element,
    check_partition,
    locate_many,
    sample_uniform,
    split_element,
    to_global_many,
    to_local_many,
)


def two_element_line():
    return Decomposition((Element.box([-1.0], [0.0]), Element.box([0.0], [1.0])))


def test_element_probability_examples():
    assert Element.box([-1.0], [1.0]).prob == 1.0
    assert Element.box([0.0], [1.0]).prob == 0.5
    assert Element.box([-1.0, 0.0], [0.0, 1.0]).prob == 0.25


def test_element_probability_degenerate():
    with pytest.raises(ValueError):
        Element.box([0.0], [0.0])


def test_element_box_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Element.box([0.5], [0.25])
    with pytest.raises(ValueError):
        Element.box([-2.0], [0.0])


def test_to_local_examples():
    assert to_local_many(Element.box([0.0], [1.0]), [[0.5]])[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert to_local_many(Element.box([-1.0], [1.0]), [[0.25]])[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert to_local_many(Element.box([0.0], [0.5]), [[0.125]])[0, 0] == pytest.approx(-0.5, abs=1e-15)


def test_to_local_outside_raises():
    with pytest.raises(DomainError):
        to_local_many(Element.box([0.0], [1.0]), [[-0.5]])
    with pytest.raises(DomainError):
        to_local_many(Element.box([0.0], [1.0]), np.array([[0.2], [1.5]]))


@given(
    lo=st.floats(-1.0, 0.4),
    width=st.floats(0.05, 0.6),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_affine_round_trip(lo, width, frac):
    hi = min(lo + width, 1.0)
    e = Element.box([lo], [hi])
    z = min(lo + frac * (hi - lo), hi)
    back = to_global_many(e, to_local_many(e, [[z]]))[0, 0]
    assert abs(back - z) < 1e-14


def test_split_element_examples():
    kids = split_element(Element.box([-1.0], [1.0]), {0})
    assert [(k.lower[0], k.upper[0]) for k in kids] == [(-1.0, 0.0), (0.0, 1.0)]
    assert [k.prob for k in kids] == [0.5, 0.5]

    square = Element.box([-1.0, -1.0], [1.0, 1.0])
    four = split_element(square, {0, 1})
    assert len(four) == 4
    assert all(k.prob == 0.25 for k in four)

    half = split_element(Element.box([0.0], [1.0]), {0})
    assert [k.prob for k in half] == [0.25, 0.25]
    assert sum(k.prob for k in half) == Element.box([0.0], [1.0]).prob


def test_split_element_validates_dims():
    with pytest.raises(ValueError):
        split_element(Element.box([0.0], [1.0]), set())
    with pytest.raises(ValueError):
        split_element(Element.box([0.0], [1.0]), {1})


def test_locate_examples():
    dec = two_element_line()
    # half-open boxes: 0 belongs to [0, 1); the right domain edge is closed
    assert locate_many(dec, [[0.0], [-0.3], [1.0]]).tolist() == [1, 0, 1]


def test_locate_outside_domain():
    with pytest.raises(DomainError):
        locate_many(two_element_line(), [[1.5]])


def test_locate_many_matches_bounds():
    dec = two_element_line()
    pts = sample_uniform(500, 1, 3).points
    assert np.array_equal(locate_many(dec, pts), (pts[:, 0] >= 0.0).astype(int))


def test_sampling_determinism_and_bounds():
    a = sample_uniform(3, 1, 42)
    b = sample_uniform(3, 1, 42)
    assert np.array_equal(a.points, b.points)
    big = sample_uniform(70_000, 2, 9).points  # crosses a chunk boundary
    assert np.all(big >= -1.0) and np.all(big < 1.0)
    again = sample_uniform(70_000, 2, 9).points
    assert np.array_equal(big, again)


def test_sampling_mean_clt():
    pts = sample_uniform(1_000_000, 1, 7).points
    assert abs(float(pts.mean())) < 0.004


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_uniform(0, 1, 1)
    with pytest.raises(ValueError):
        sample_uniform(5, 0, 1)
    with pytest.raises(ValueError):
        sample_uniform(5, 1, -3)


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1)), max_size=12))
@settings(max_examples=60, deadline=None)
def test_partition_of_unity_after_random_splits(ops):
    elements = [Element.box([-1.0, -1.0], [1.0, 1.0])]
    for pick, dim in ops:
        k = pick % len(elements)
        elements[k : k + 1] = split_element(elements[k], {dim})
    dec = Decomposition(tuple(elements))
    assert abs(sum(e.prob for e in dec.elements) - 1.0) < 1e-12
    assert check_partition(dec) == []


def test_check_partition_reports_gaps_and_overlaps_exactly():
    # [-1, -2^-20), [0, 0.5 + 2^-20), [0.5, 1]: the probabilities sum to exactly 1
    eps = 2.0**-20
    dec = Decomposition((Element.box([-1.0], [-eps]), Element.box([0.0], [0.5 + eps]), Element.box([0.5], [1.0])))
    assert sum(e.prob for e in dec) == 1.0
    assert check_partition(dec) == [
        f"uncovered region [{[-eps]}, {[0.0]})",
        f"elements [1, 2] overlap on [{[0.5]}, {[0.5 + eps]})",
    ]
    # a mesh missing one quadrant of the square, and one with a cell covered twice
    a, b, c = Element.box([-1.0, -1.0], [0.0, 0.0]), Element.box([0.0, -1.0], [1.0, 0.0]), Element.box([-1.0, 0.0], [0.0, 1.0])
    assert check_partition(Decomposition((a, b, c))) == [
        "element probabilities sum to 0.75, not 1",
        "uncovered region [[0.0, 0.0], [1.0, 1.0])",
    ]
    d = Element.box([-1.0, 0.0], [1.0, 1.0])
    assert check_partition(Decomposition((a, b, c, d))) == [
        "element probabilities sum to 1.25, not 1",
        "elements [2, 3] overlap on [[-1.0, 0.0], [0.0, 1.0])",
    ]


def test_locate_many_table_matches_bounds_in_two_dimensions():
    elements = [Element.box([-1.0, -1.0], [1.0, 1.0])]
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(len(elements)))
        elements[k : k + 1] = split_element(elements[k], {int(rng.integers(2))})
    dec = Decomposition(tuple(elements))
    pts = np.vstack([rng.uniform(-1.0, 1.0, size=(2000, 2)), [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]],
                     [[e.lower[0], e.lower[1]] for e in elements]])
    lo = np.array([e.lower for e in elements])
    hi = np.array([e.upper for e in elements])
    inside = np.all((pts[:, None, :] >= lo) & ((pts[:, None, :] < hi) | (pts[:, None, :] == 1.0) & (hi == 1.0)), axis=2)
    assert np.all(inside.sum(axis=1) == 1)
    assert np.array_equal(locate_many(dec, pts), np.argmax(inside, axis=1))
    with pytest.raises(DomainError):
        locate_many(dec, [[0.0, np.nan]])


def test_split_locate_consistency():
    parent = Element.box([-0.5, 0.0], [0.5, 1.0])
    children = split_element(parent, {0, 1})
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.uniform(parent.lower[d], parent.upper[d], size=200) for d in range(2)]
    )
    # every point of the parent sits in exactly one child
    hits = np.zeros(len(pts), dtype=int)
    for child in children:
        lo = np.array(child.lower)
        hi = np.array(child.upper)
        inside = np.all((pts >= lo) & (pts < hi), axis=1)
        hits += inside
    assert np.all(hits == 1)



def _located_like_the_search(dec, pts):
    """locate_many against the cell formula owner[searchsorted(b[1:-1], x, side="right")]."""
    breaks, owner, _ = dec.cells
    cell = tuple(np.searchsorted(b[1:-1], pts[:, j], side="right") for j, b in enumerate(breaks))
    assert np.array_equal(locate_many(dec, pts), owner[cell])


def _edge_coordinates(b):
    """Every breakpoint, both of its floating-point neighbours inside the domain, and -1 and 1."""
    near = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), [-1.0, 1.0]])
    return near[(near >= -1.0) & (near <= 1.0)]


def _bisection_mesh_2d(seed, splits):
    elements = [Element.box([-1.0, -1.0], [1.0, 1.0])]
    rng = np.random.default_rng(seed)
    for _ in range(splits):
        k = int(rng.integers(len(elements)))
        elements[k : k + 1] = split_element(elements[k], {int(rng.integers(2))})
    return Decomposition(tuple(elements))


def test_bucket_location_equals_the_search():
    from mehybrid.problems import PROBLEMS, KoModel
    from mehybrid.refine import RefinementConfig

    ko3 = PROBLEMS["ko3"].build_surrogate(KoModel(), 3, RefinementConfig(theta1=1e-4, N=3), []).decomposition
    third = 1.0 / 3.0
    skewed = Decomposition((Element.box([-1.0], [third]), Element.box([third], [third + 1e-10]),
                            Element.box([third + 1e-10], [1.0])))
    square = _bisection_mesh_2d(4, 30)
    assert len(ko3) == 44
    # bisection puts every breakpoint on a bucket edge, so the table alone locates;
    # the non-dyadic mesh reaches the bucket cap and moves points past its breakpoints
    (scale, _, hi), = ko3.buckets
    assert scale == 2048 and hi is None
    (scale, _, hi), = skewed.buckets
    assert scale == 2**15 and hi is not None
    rng = np.random.default_rng(5)
    for dec in (ko3, skewed, square):
        breaks = dec.cells[0]
        uniform = rng.uniform(-1.0, 1.0, size=(5000, dec.dim))
        _located_like_the_search(dec, uniform)
        for j, b in enumerate(breaks):
            edges = _edge_coordinates(b)
            pts = uniform[rng.integers(5000, size=edges.size)]
            pts[:, j] = edges
            _located_like_the_search(dec, pts)
        if dec.dim == 2:
            grid = np.meshgrid(*(_edge_coordinates(b) for b in breaks), indexing="ij")
            _located_like_the_search(dec, np.column_stack([g.ravel() for g in grid]))
        for bad in (np.nan, 1.0 + 2**-52, -1.5):
            pts = uniform[:3].copy()
            pts[1, -1] = bad
            with pytest.raises(DomainError):
                locate_many(dec, pts)
