"""Unit and property tests for the integer helpers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatsieve import arith, quadform


def test_isqrt_examples():
    assert arith.isqrt(9797) == 98  # 98^2 = 9604 <= 9797 < 9801 = 99^2
    assert arith.isqrt(0) == 0
    assert arith.isqrt(16) == 4


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        arith.isqrt(-1)


def test_ceil_sqrt_examples():
    assert arith.ceil_sqrt(9797) == 99
    assert arith.ceil_sqrt(16) == 4
    assert arith.ceil_sqrt(17) == 5
    assert arith.ceil_sqrt(0) == 0


def test_is_perfect_square_examples():
    assert arith.is_perfect_square(16) == 4
    assert arith.is_perfect_square(99 * 99 - 9797) == 2
    assert arith.is_perfect_square(5) is None
    assert arith.is_perfect_square(0) == 0
    assert arith.is_perfect_square(-4) is None


@given(st.integers(min_value=0, max_value=10**40))
def test_isqrt_postcondition(x):
    r = arith.isqrt(x)
    assert r * r <= x < (r + 1) * (r + 1)


@given(st.integers(min_value=0, max_value=10**40))
def test_ceil_sqrt_is_isqrt_plus_correction(x):
    r = arith.isqrt(x)
    assert arith.ceil_sqrt(x) == r + (0 if r * r == x else 1)


@given(st.integers(min_value=0, max_value=10**20))
def test_square_detection_roundtrip(r):
    assert arith.is_perfect_square(r * r) == r


@given(st.integers(min_value=2, max_value=10**20))
def test_between_squares_is_not_square(r):
    # r^2 < r^2 + r < (r+1)^2, so r^2 + r is never a square
    assert arith.is_perfect_square(r * r + r) is None


@pytest.mark.parametrize(
    "roots",
    [range(1, 10**4 + 1), [2**k + e for k in range(1, 401) for e in (-1, 1)]],
    ids=["r<=1e4", "r=2^k+-1"],
)
def test_icbrt_around_cubes(roots):
    for r in roots:
        cube = r**3
        assert (arith.icbrt(cube - 1), arith.icbrt(cube), arith.icbrt(cube + 1)) == (r - 1, r, r)


def test_icbrt_of_zero_and_negative():
    assert arith.icbrt(0) == 0
    with pytest.raises(ValueError):
        arith.icbrt(-1)


def test_sqrt_family_exhaustive_to_1e6():
    root = 0
    for x in range(10**6 + 1):
        if (root + 1) * (root + 1) <= x:
            root += 1
        assert arith.isqrt(x) == root
        exact = root * root == x
        assert arith.ceil_sqrt(x) == root + (0 if exact else 1)
        sq = arith.is_perfect_square(x)
        if exact:
            assert sq == root
        else:
            assert sq is None


def _survivors(start, stop, kills):
    """The kernel's contract as a plain per-u predicate: u survives when
    u = r (mod q) for no class (q, residues) and no r in residues."""
    classes = [(q, {r % q for r in residues}) for q, residues in kills]
    return [u for u in range(start, stop) if all(u % q not in drop for q, drop in classes)]


def _classes(kills):
    """The kernel's form of residue-list classes."""
    return [arith.kill_class(q, residues) for q, residues in kills]


def _residues(classes):
    """Residue lists of kernel classes: the r whose alive bit is clear."""
    return [(q, [r for r in range(q) if not alive >> r & 1]) for q, alive in classes]


def _block_edges():
    """Offsets from a scan's start where the kernel's blocks meet."""
    edges, at, size = [], 0, arith._BLOCK_FIRST
    while at < 3 * arith._BLOCK_CAP:
        at += size
        edges.append(at)
        size = min(2 * size, arith._BLOCK_CAP)
    return edges


_SQUARES = {q: {r * r % q for r in range(q)} for q in (64, 63, 65, 11, 17, 19, 23, 29, 31, 37)}


def _passes_screens(x):
    return all(x % q in squares for q, squares in _SQUARES.items())


F5 = (1 << 32) + 1


@pytest.mark.parametrize(
    "N, step, offset, first",
    [
        (4 * 1402**2 + 1, 8, 1, 351),  # 8u + 1, even generator
        (4 * 1403**2 + 1, 8, 3, 351),  # 8u + 3, odd generator
        (9797, 1, 0, 99),  # the plain c walk from ceil(sqrt(N))
        (F5, 8192, 1, 8),  # 2^(2n+3) lam + 1 for F_5
    ],
)
def test_sieve_progression_screens_match_plain_scan(N, step, offset, first):
    # empty, shorter than one block, and ranges that end on, just before
    # and just after each block boundary
    lengths = [0, 1, 100] + [e + d for e in _block_edges()[:4] for d in (-1, 0, 1)]
    kills = arith.nonsquare_classes(N, step, offset)
    for length in lengths:
        stop = first + length
        expected = [
            u for u in range(first, stop) if _passes_screens((step * u + offset) ** 2 - N)
        ]
        assert list(arith.sieve_progression(first, stop, kills)) == expected, length
        assert expected == _survivors(first, stop, _residues(kills)), length


def test_sieve_progression_long_scan_keeps_every_square():
    # past the block cap, and every center with a square discriminant survives
    N = 4 * 1406**2 + 1  # 7907345 = 5 * 1581469, square at u = 98842
    first, stop = 352, 352 + 3 * arith._BLOCK_CAP + 17
    kills = arith.nonsquare_classes(N, 8, 1)
    got = list(arith.sieve_progression(first, stop, kills))
    assert got == _survivors(first, stop, _residues(kills))
    squares = [
        u for u in range(first, stop) if arith.is_perfect_square((8 * u + 1) ** 2 - N) is not None
    ]
    assert squares == [98842] and 98842 in got


_kill_classes = st.lists(
    st.integers(min_value=1, max_value=150).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(0, 2 * q - 1), max_size=q, unique=True).map(tuple)
        )
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**15),
    st.integers(min_value=0, max_value=3 * arith._BLOCK_FIRST + 50),
    _kill_classes,
)
def test_sieve_progression_matches_predicate(start, length, kills):
    stop = start + length
    got = list(arith.sieve_progression(start, stop, _classes(kills)))
    assert got == _survivors(start, stop, kills)


def test_sieve_progression_tests_sparse_classes_per_survivor():
    # after the dense classes mod 2..11 few u are left; the class mod 97
    # (given partly by residues >= 97) is AND-ed into those sparse blocks too
    dense = [(q, tuple(range(1, q))) for q in (2, 3, 5, 7, 11)]
    kills = dense + [(97, tuple(range(1, 97, 2)) + (97 + 2,))]
    start, stop = 10**12, 10**12 + 3 * arith._BLOCK_CAP
    got = list(arith.sieve_progression(start, stop, _classes(kills)))
    assert got == _survivors(start, stop, kills)
    assert got and all(u % 2310 == 0 and u % 97 % 2 == 0 and u % 97 != 2 for u in got)


# classes that each drop more than half the u, some residues given as r + q
_dense_classes = st.lists(
    st.integers(min_value=3, max_value=64).flatmap(
        lambda q: st.sets(st.integers(0, q - 1), min_size=q // 2 + 1, max_size=q // 2 + 1).map(
            lambda rs: (q, tuple(r + q * (r % 3 == 0) for r in sorted(rs)))
        )
    ),
    min_size=12,
    max_size=14,
)

# sparse classes with moduli on both sides of the block cap (some residues >= q)
_large_classes = st.lists(
    st.integers(min_value=arith._BLOCK_CAP - 64, max_value=2 * arith._BLOCK_CAP + 1).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(0, 2 * q - 1), min_size=1, max_size=24).map(tuple)
        )
    ),
    max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=10**12 - 10**6, max_value=10**12 + 10**6),
    st.integers(min_value=0, max_value=3 * arith._BLOCK_CAP),
    _dense_classes,
    st.integers(min_value=arith._BLOCK_CAP - 64, max_value=arith._BLOCK_CAP + 64),
    st.integers(min_value=0, max_value=2),
    _large_classes,
)
def test_sieve_progression_matches_predicate_past_the_block_cap(
    start, length, dense, big_q, first, large
):
    # twelve classes that each drop more than half the u leave a full
    # block fewer than 16, and often none, so later classes meet empty
    # blocks; the dense class mod big_q (two thirds of the residues) and
    # the sparse ones are AND-ed on both sides of the block cap, a tile
    # past the cap growing to about 2q bits
    kills = [*dense, (big_q, tuple(range(first, 2 * big_q, 3))), *large]
    stop = start + length
    got = list(arith.sieve_progression(start, stop, _classes(kills)))
    assert got == _survivors(start, stop, kills)


def _record(start, stop, classes):
    """The count record of a square_centers scan over the plain c walk of
    F_5, run to stop."""
    counts = {}
    for _ in arith.square_centers(F5, 1, 0, start, stop, classes, counts):
        pass
    return counts


def _count_matches_walk(start, stop, kills):
    classes = _classes(kills)
    screened = [*classes, *arith.nonsquare_classes(F5, 1, 0)]
    assert _record(start, stop, classes) == {
        "kept": sum(1 for _ in arith.sieve_progression(start, stop, classes)),
        "tested": sum(1 for _ in arith.sieve_progression(start, stop, screened)),
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**15),
    st.integers(min_value=-3, max_value=3 * arith._BLOCK_FIRST + 50),
    _kill_classes,
)
def test_kept_count_matches_walk(start, length, kills):
    # empty kills, empty and reversed ranges and AND-ed classes alone
    _count_matches_walk(start, start + length, kills)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=10**12 - 10**6, max_value=10**12 + 10**6),
    st.integers(min_value=0, max_value=3 * arith._BLOCK_CAP),
    _dense_classes,
    _large_classes,
)
def test_kept_count_matches_walk_with_tested_classes(start, length, dense, large):
    # the dense classes leave fewer than 16 u per block, often none, and
    # the classes past _BLOCK_CAP are counted per block like the rest
    _count_matches_walk(start, start + length, [*dense, *large])


def test_kept_count_examples():
    assert _record(5, 5, [])["kept"] == _record(7, 3, [])["kept"] == 0
    assert _record(0, 10, [])["kept"] == 10
    kills = [arith.kill_class(4, (2,)), arith.kill_class(3, (0, 2))]
    assert _record(0, 12, kills)["kept"] == 3  # 1, 4 and 7
    big = arith._BLOCK_CAP + 1  # AND-ed like every class, its tile 2q bits
    assert _record(0, 3 * big, [arith.kill_class(big, (0,))])["kept"] == 3 * big - 3


@pytest.mark.parametrize(
    "N, step, offset, first, hits",
    [
        (4 * 1409**2 + 1, 8, 3, 352, 15),  # 8u + 3, odd generator
        (4 * 1416**2 + 1, 8, 1, 354, 5),  # 8u + 1, even generator
        (3 * 5 * 7 * 11 * 13 * 17 * 19, 1, 0, 2203, 56),  # the plain c walk
        (F5, 1, 0, 1 << 16, 0),
    ],
)
def test_tested_count_stops_at_the_last_u_consumed(N, step, offset, first, hits):
    # the record counts the u put to the square test up to the hit the
    # caller took last, and every such u up to stop once the scan ends
    stop = first + 2 * arith._BLOCK_CAP
    screened = list(arith.sieve_progression(first, stop, arith.nonsquare_classes(N, step, offset)))
    counts = {}
    scan = arith.square_centers(N, step, offset, first, stop, (), counts)
    taken = 0
    for u, _ in scan:
        taken += 1
        assert counts["tested"] == screened.index(u) + 1
    assert taken == hits
    assert counts == {"kept": stop - first, "tested": len(screened)}


def test_kill_class_examples():
    assert arith.kill_class(4, (2,)) == (4, 0b1011)
    assert arith.kill_class(3, (0, 2, 5)) == (3, 0b010)  # 5 = 2 (mod 3)
    assert arith.kill_class(5, ()) == (5, 31)
    assert arith.kill_class(1, (7,)) == (1, 0)
    assert _residues([arith.kill_class(97, (1, 96, 98))]) == [(97, [1, 96])]


def test_many_classes_build_no_byte_mask_once_cached():
    # the QR classes of factor --heuristic-filters --prime-bound 5000 at
    # n = 3001: a second scan takes all 667 classes (657 QR classes and the
    # 10 screens) from nonsquare_classes' cache and builds none of them again
    t = quadform.make_target(3001)
    primes = quadform.default_filter_primes(t, 5000)
    first = quadform.sieve_enumerate(t, primes)
    misses = arith._nonsquare_class.cache_info().misses
    assert quadform.sieve_enumerate(t, primes) == first
    assert arith._nonsquare_class.cache_info().misses == misses
    assert [(p.a, p.b, p.witness_u) for p in first] == [(5, 7204801, 450300)]


def test_nonsquare_classes_cannot_be_changed_by_a_caller():
    # a class is a pair of ints: no caller can rewrite what the cache
    # hands every later caller
    N = 4 * 1402**2 + 1
    squares = {r * r % 17 for r in range(17)}
    alive = sum(1 << r for r in range(17) if ((8 * r + 1) ** 2 - N) % 17 in squares)
    got = arith.nonsquare_classes(N, 8, 1, [17])
    assert got == [(17, alive)]
    with pytest.raises(TypeError):
        got[0][1][0] = 1
    with pytest.raises(TypeError):
        del got[0][1][1:]
    got[0] = (17, 0)  # the list itself is the caller's own
    assert arith.nonsquare_classes(N, 8, 1, [17]) == [(17, alive)]


def test_sieve_progression_rejects_bad_modulus():
    for q in (0, -1, -5):
        with pytest.raises(ValueError, match="^kill class modulus must be >= 1$"):
            arith.kill_class(q, ())
        # nonsquare_classes refuses it alike: 0 would divide by zero, -5 ask for a negative count
        with pytest.raises(ValueError, match="^kill class modulus must be >= 1$"):
            arith.nonsquare_classes(65, 8, 1, (3, q))
    with pytest.raises(ValueError):
        list(arith.sieve_progression(0, 10, [(0, 0)]))
    # on an empty range too, and for alive bits outside [0, 2^period)
    with pytest.raises(ValueError):
        list(arith.sieve_progression(5, 5, [(0, 1)]))
    with pytest.raises(ValueError):
        _record(7, 3, [(-1, 0)])
    for bad in ((3, 8), (3, -1)):
        with pytest.raises(ValueError):
            _record(0, 10, [bad])
    # a class that drops nothing leaves every u
    assert list(arith.sieve_progression(0, 3, [arith.kill_class(1, ())])) == [0, 1, 2]


def test_compositeness_witness_same_from_cold_and_warm_tiles():
    # from n = 8 on, the first scan of each target builds the screens'
    # first-block tiles and the second takes them from the cache, however
    # short the scan; n = 1-3 scan nothing, and the scans of n = 4-7 are
    # covered by the classes' periods alone
    for n in range(1, 2001):
        t = quadform.make_target(n)
        arith._first_tile.cache_clear()
        cold = quadform.compositeness_witness(t)
        assert (arith._first_tile.cache_info().currsize > 0) == (n >= 8), n
        assert quadform.compositeness_witness(t) == cold, n
        assert (arith._first_tile.cache_info().hits > 0) == (n >= 8), n


# classes on both sides of the cached bound q <= _BLOCK_FIRST, repeats and
# classes met before (the same seeds) among them
_cache_classes = st.lists(
    st.sampled_from([1, 2, 7, 64, 97, arith._BLOCK_FIRST - 1, arith._BLOCK_FIRST])
    .flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(0, q - 1), max_size=5).map(tuple)
        )
    )
    | st.integers(arith._BLOCK_FIRST + 1, 3 * arith._BLOCK_FIRST).flatmap(
        lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), max_size=3).map(tuple))
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=3 * arith._BLOCK_FIRST + 50),
    _cache_classes,
    st.booleans(),
)
def test_sieve_progression_with_cached_tiles_matches_predicate(start, length, kills, cold):
    if cold:
        arith._first_tile.cache_clear()
    stop = start + length
    expected = _survivors(start, stop, kills)
    assert list(arith.sieve_progression(start, stop, _classes(kills))) == expected
    assert list(arith.sieve_progression(start, stop, _classes(kills))) == expected
    assert _record(start, stop, _classes(kills))["kept"] == len(expected)


def test_first_tile_cache_stays_under_its_bounds(monkeypatch):
    # two scans with a class of every odd prime up to 2^14: 563 of each set
    # have q <= _BLOCK_FIRST, more classes than the cache holds, so it
    # evicts on the way, and the scans still match a plain sieve
    cached = arith._first_tile
    asked = []

    def recorded(q, alive):
        tile = cached(q, alive)
        asked.append((q, tile[1]))
        return tile

    monkeypatch.setattr(arith, "_first_tile", recorded)
    cached.cache_clear()
    primes = arith.primes_up_to(1 << 14)[1:]
    small = 0
    for r in (0, 1):
        kills = [arith.kill_class(p, (r,)) for p in primes]
        small += sum(q <= arith._BLOCK_FIRST for q, _ in kills)
        span = range(10**9, 10**9 + arith._BLOCK_FIRST)  # one full block
        keep = bytearray(b"\x01") * len(span)
        for p in primes:  # a plain sieve: clear u = r (mod p)
            first = (r - span.start) % p
            keep[first::p] = bytes(len(range(first, len(span), p)))
        expected = [u for u, k in zip(span, keep) if k]
        assert list(arith.sieve_progression(span.start, span.stop, kills)) == expected
    info = cached.cache_info()
    assert 0 < info.currsize <= info.maxsize < len(asked) == small == 2 * 563
    # each key is a class with q <= _BLOCK_FIRST, each tile is shorter than
    # 3 * _BLOCK_FIRST bits, and so a full cache holds at most 2^22 bits
    assert all(q <= arith._BLOCK_FIRST and width < 3 * arith._BLOCK_FIRST for q, width in asked)
    assert info.maxsize * 3 * arith._BLOCK_FIRST <= 1 << 22


def _plain_square_centers(N, step, offset, start, stop, kills):
    """square_centers' contract as a plain loop over every u: the u outside
    the kill classes whose center c gives c^2 - N = r^2 with c - r > 1."""
    hits = []
    for u in _survivors(start, stop, kills):
        c = step * u + offset
        disc = c * c - N
        r = math.isqrt(disc) if disc >= 0 else -1
        if r * r == disc and c - r > 1:
            hits.append((u, r))
    return hits


@settings(max_examples=120, deadline=None)
@given(
    # step 1 for the plain walk, 8u + 1 / 8u + 3 for 4n^2 + 1, and the
    # center steps 2^(2n+3) of F_5 and F_8
    st.sampled_from([(1, 0), (8, 1), (8, 3), (1 << 13, 1), (1 << 19, 1)]),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=0, max_value=3 * arith._BLOCK_FIRST + 50),
    st.integers(min_value=0, max_value=3 * arith._BLOCK_FIRST + 50),
    _kill_classes,
)
def test_square_centers_matches_plain_loop(progression, u0, d, back, length, kills):
    # N = c0^2 - d^2 plants a square at u0 (the trivial split when d = c0 - 1);
    # ranges that start below u0 start below sqrt(N) when d is small
    step, offset = progression
    c0 = step * u0 + offset
    N = c0 * c0 - min(d, c0 - 1) ** 2
    start = max(u0 - back, 0)
    got = list(arith.square_centers(N, step, offset, start, start + length, _classes(kills)))
    assert got == _plain_square_centers(N, step, offset, start, start + length, kills)


def test_mod_inv_examples():
    assert arith.mod_inv(16, 7) == 4  # 16 = 2 (mod 7), 2*4 = 8 = 1
    for p in (3, 7, 101):
        assert arith.mod_inv(1, p) == 1
        assert arith.mod_inv(p - 1, p) == p - 1


def test_mod_inv_rejects_multiple_of_p():
    with pytest.raises(ValueError):
        arith.mod_inv(0, 7)
    with pytest.raises(ValueError):
        arith.mod_inv(14, 7)


def test_mod_inv_property_to_1000():
    for p in arith.primes_up_to(1000):
        if p == 2:
            continue
        for a in range(1, p):
            assert arith.mod_inv(a, p) * a % p == 1


def test_is_prime_examples():
    assert arith.is_prime(101)
    assert not arith.is_prime(9797)  # 97 * 101
    assert arith.is_prime(6700417)


def test_6700417_prime_by_trial_division():
    n = 6700417
    for d in range(2, arith.isqrt(n) + 1):
        assert n % d != 0


def test_is_prime_agrees_with_sieve_to_1e6():
    flags = bytearray([1]) * (10**6 + 1)
    flags[0] = flags[1] = 0
    for i in range(2, 1001):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    for x in range(10**6 + 1):
        assert arith.is_prime(x) == bool(flags[x]), x


#: The smallest strong pseudoprimes to the first 12 and 13 prime bases
#: (OEIS A014233), as products of their two prime factors.
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def _strong_probable_prime(x, base):
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    v = pow(base, d, x)
    return v in (1, x - 1) or any(pow(v, 1 << r, x) == x - 1 for r in range(1, s))


def test_prime_test_is_exact_below_psi_13():
    bases = arith.primes_up_to(41)
    assert len(bases) == 13 and arith.PRIME_TEST_EXACT_BELOW == PSI_13
    for p in (399165290221, 798330580441, 1287836182261, 2575672364521):
        assert arith.is_prime(p)  # each below psi_13, where the 13 bases decide
    # psi_12 passes bases 2 to 37 and fails 41; psi_13 passes all 13
    assert [_strong_probable_prime(PSI_12, b) for b in bases] == [True] * 12 + [False]
    assert all(_strong_probable_prime(PSI_13, b) for b in bases)
    assert 1 << 64 < PSI_12 < PSI_13
    assert not arith.is_prime(PSI_12)


#: psi_1 to psi_12 (OEIS A014233): psi_k is the smallest strong
#: pseudoprime to the first k prime bases.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
)


def test_is_prime_rejects_psi_1_to_psi_12():
    bases = arith.primes_up_to(41)
    for k, psi in enumerate(PSI, start=1):
        assert all(_strong_probable_prime(psi, b) for b in bases[:k]), k
        assert not arith.is_prime(psi), k
    assert PSI[-1] == PSI_12


def test_is_prime_takes_the_13_bases_from_2_64():
    # past 2^64 and below psi_13 the 13 bases decide a 69-bit prime N =
    # 4n^2 + 1 and 2917 * a 65-bit prime exactly; psi_13 itself is refused
    assert arith.is_prime(4 * 10000000002**2 + 1)
    assert arith.is_prime(20900347964557399981)
    assert not arith.is_prime(2917 * 20900347964557399981)
    assert not arith.is_prime(PSI_12)
    with pytest.raises(ValueError, match="psi_13"):
        arith.is_prime(PSI_13)


def test_is_prime_refuses_from_psi_13_on():
    # no answer at or past psi_13 would be exact: a prime, a composite with
    # a small factor and an even number are refused alike
    for x in (PSI_13, PSI_13 + 1, PSI_13 + 2, (1 << 127) - 1, 3 * ((1 << 127) - 1)):
        with pytest.raises(ValueError, match="no exact prime test"):
            arith.is_prime(x)
    assert not arith.is_prime(PSI_13 - 1)  # the largest x it answers


def _is_prime_by_seven_bases(x):
    """Sinclair's seven bases, exact for odd x < 2^64 past trial division."""
    return all(
        b % x == 0 or _strong_probable_prime(x, b % x)
        for b in (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
    )


def test_13_bases_agree_with_the_seven_below_2_64():
    # odd x of 14 to 64 bits, uniform in the bit length, past trial division
    rng = random.Random(20170313)
    small = arith.primes_up_to(97)
    primes = 0
    for _ in range(20000):
        bits = rng.randrange(14, 65)
        x = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if any(x % p == 0 for p in small):
            continue
        assert arith.is_prime(x) == _is_prime_by_seven_bases(x), x
        primes += arith.is_prime(x)
    assert primes > 1000


def test_primes_up_to_examples():
    assert arith.primes_up_to(10) == [2, 3, 5, 7]
    assert arith.primes_up_to(1) == []
    assert arith.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_up_to_against_trial_division():
    def dumb_prime(x):
        return x >= 2 and all(x % d for d in range(2, x))

    assert arith.primes_up_to(300) == [x for x in range(301) if dumb_prime(x)]
