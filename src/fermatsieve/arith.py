"""Exact integer arithmetic helpers shared by the whole toolkit.

Everything works on plain Python ints, so magnitudes are unbounded and
nothing here can overflow.  All functions are pure, and their caches hold
only ints and tuples of ints, which no caller can change.
"""

import functools
import math

__all__ = [
    "isqrt",
    "ceil_sqrt",
    "icbrt",
    "is_perfect_square",
    "kill_class",
    "nonsquare_classes",
    "sieve_progression",
    "square_centers",
    "mod_inv",
    "PRIME_TEST_EXACT_BELOW",
    "PRIME_BOUND_MAX",
    "SCREENS",
    "is_prime",
    "primes_up_to",
]


def isqrt(x: int) -> int:
    """Floor square root: the result r satisfies r*r <= x < (r+1)*(r+1).
    A negative x raises math.isqrt's ValueError."""
    return math.isqrt(x)


def ceil_sqrt(x: int) -> int:
    """Smallest r with r*r >= x; a negative x raises math.isqrt's ValueError."""
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def icbrt(x: int) -> int:
    """Floor cube root of x >= 0: the r with r^3 <= x < (r+1)^3.

    Newton's step from 2^ceil(bits/3), which is above the root, falls
    monotonically to the floor, so the first step that does not fall ends
    it; integers only, so x may be of any size.
    """
    if x < 0:
        raise ValueError("icbrt is undefined for negative values")
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // 3)
    while True:
        s = (2 * r + x // (r * r)) // 3
        if s >= r:
            return r
        r = s


@functools.lru_cache(maxsize=256)
def _square_residues(modulus: int) -> bytes:
    table = bytearray(modulus)
    for r in range(modulus):
        table[r * r % modulus] = 1
    return bytes(table)


#: The square screens square_centers adds to every scan.  Only 12 of 64
#: residues mod 64 are squares, 63, 65 and 11 drop most of the rest, and
#: the primes 17 to 37 cut the compositeness scan about 6-fold (README).
SCREENS = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37)


def is_perfect_square(x: int) -> int | None:
    """Return the integer square root of x if x is a perfect square, else None.

    Negative inputs are never squares.  The test is the exact isqrt
    round-trip alone: the scans screen residues before they call it, in
    square_centers.
    """
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # keep byte -> binary digit


def _pattern(keep: bytes) -> int:
    """The int whose bit r is set when keep[r] is 1 (every byte 0 or 1)."""
    return int(keep.translate(_DIGITS)[::-1], 2)


def kill_class(q: int, residues) -> tuple[int, int]:
    """The kill class (q, alive) that drops every u = r (mod q), r in residues.

    Bit r of alive is set when u = r (mod q) survives; residues may lie
    outside [0, q) and are taken mod q.  This and nonsquare_classes build
    the classes sieve_progression and square_centers take; square_centers'
    count record says how many u a scan's own classes keep.
    """
    if q < 1:
        raise ValueError("kill class modulus must be >= 1")
    keep = bytearray(b"\x01") * q
    for r in residues:
        keep[r % q] = 0
    return q, _pattern(keep)


@functools.lru_cache(maxsize=8192)
def _nonsquare_class(q: int, N: int, step: int, offset: int) -> tuple[int, int]:
    table = _square_residues(q)
    period = q // math.gcd(q, step)
    keep = bytes([table[((step * u + offset) ** 2 - N) % q] for u in range(period)])
    return period, _pattern(keep)


def nonsquare_classes(N: int, step: int, offset: int, moduli=SCREENS) -> list:
    """Kill classes of the u whose (step*u + offset)^2 - N is no square mod q.

    One class (period, alive) per modulus q, with period = q / gcd(q, step):
    bit r of alive is set when u = r (mod period) survives, that is when
    the discriminant is a square mod q.  A square is a square modulo every
    q, so no class drops a u whose discriminant is a perfect square; when
    q divides N every discriminant is a square mod q and every bit is set.
    The default moduli are the square screens, SCREENS, that
    square_centers adds to every scan; callers pass other moduli only for
    filters of their own, as quadform.filter_kills does.  Classes are cached
    by (q, N mod q, step mod q, offset mod q), on which alone they depend;
    each is a pair of ints, so no caller can change what the cache holds.
    A modulus below 1 raises kill_class's ValueError.
    """
    if any(q < 1 for q in moduli):
        raise ValueError("kill class modulus must be >= 1")
    return [_nonsquare_class(q, N % q, step % q, offset % q) for q in moduli]


#: Blocks start at _BLOCK_FIRST u and double up to _BLOCK_CAP, which bounds
#: a long scan's memory: a block is a _BLOCK_CAP-bit int, and each class
#: that a block reaches keeps a tile of less than 2(_BLOCK_CAP + q) bits,
#: about 2q for a class past the cap.  Below a few thousand u the
#: per-class shifts dominate a block, so a smaller first block would not
#: make a scan that hits at once cheaper.
_BLOCK_FIRST = 1 << 12
_BLOCK_CAP = 1 << 16

_NONZERO = bytes(1) + b"\x01" * 255  # translate table: nonzero byte -> 1


def _set_bits_table() -> tuple[bytes, ...]:
    """Entry k lists the set bits of the byte k, ascending."""
    table = [b""]
    for bit in range(8):
        one = bytes((bit,))
        table += [bits + one for bits in table]
    return tuple(table)


_SET_BITS = _set_bits_table()


def _tile(bits: int, q: int, width: int, need: int) -> tuple[int, int]:
    """The pattern bits of period q, width bits long, doubled until it
    covers at least need bits, with its new width.  A single period is cut
    back to the whole periods covering need, so that each later doubling
    of the block is met by one doubling of the tile."""
    first = width == q
    while width < need:
        bits |= bits << width
        width *= 2
    if first:
        width = -(-need // q) * q
        bits &= (1 << width) - 1
    return bits, width


#: A first-block tile is shorter than _BLOCK_FIRST + 2q <= 3 * _BLOCK_FIRST
#: bits, so 256 of them hold at most 3 * 2^20 bits (0.375 MiB), inside a
#: 2^22-bit ceiling; the screens of every audit and factor target with
#: n <= 5000 are 231 classes.
@functools.lru_cache(maxsize=256)
def _first_tile(q: int, alive: int) -> tuple[int, int]:
    """The first-block tile of the kill class (q, alive), q <= _BLOCK_FIRST:
    its pattern tiled to _BLOCK_FIRST + q - 1 bits, with its width.  Only
    the first block's tile is kept: its width is the same for every scan,
    while later ones grow to 2(_BLOCK_CAP + q) bits and only long scans
    reach them."""
    return _tile(alive, q, q, _BLOCK_FIRST + q - 1)


def sieve_progression(start: int, stop: int, kills=(), counts=None, own=0):
    """Yield every u in [start, stop), ascending, outside all kill classes.

    kills holds classes (q, alive) from kill_class or nonsquare_classes:
    u is dropped when bit u mod q of alive is clear.  The range is sieved
    in bit-packed blocks, bit i of the int block standing for
    u = block start + i.  Each class gets a tile, one period long until a block
    first reaches it.  Then a class with q <= _BLOCK_FIRST takes its
    first-block tile from _first_tile, an lru_cache of 256 classes keyed by
    (q, alive), whatever the length of the range; for a larger q the tile
    is doubled as far as the block needs.  Tiles grow per call as later
    blocks need.  A block is the AND of the tiles shifted to its start, in
    the order given, up to the first class that leaves it empty.  A class
    with q < 1 or alive bits past its period is rejected, on an empty range
    too.

    The survivors are read back in C: the block's bytes are translated to
    flag the nonzero ones, bytes.find walks those, and a table lists the
    set bits of each.

    counts, when given, is square_centers' count record, whose entries are
    set to 0 first: counts["kept"] gains the int.bit_count of each block
    after the first own classes of kills, and counts["tested"] gains 1 for
    each u as it is yielded.
    """
    tiles = []
    for q, alive in kills:
        if q < 1 or alive < 0 or alive >> q:
            raise ValueError("a kill class is (period >= 1, alive bits below the period)")
        tiles.append([q, alive, q])
    if counts is not None:
        counts.update(kept=0, tested=0)
        tiles.insert(own, None)  # where the kept u are counted
    size = _BLOCK_FIRST
    while start < stop:
        length = min(size, stop - start)
        block = (1 << length) - 1
        for tile in tiles:
            if tile is None:
                counts["kept"] += block.bit_count()
                continue
            q, bits, width = tile
            if width < length + q - 1:  # the bits a shift by start % q reaches
                if width == q <= _BLOCK_FIRST:  # first reached
                    bits, width = _first_tile(q, bits)
                bits, width = _tile(bits, q, width, length + q - 1)
                tile[1:] = bits, width
            block &= bits >> (start % q)
            if not block:
                break  # every u is dropped: the other classes can add nothing
        data = block.to_bytes((block.bit_length() + 7) // 8, "little")
        flags = data.translate(_NONZERO)
        i = flags.find(1)
        while i >= 0:
            base = start + 8 * i
            for bit in _SET_BITS[data[i]]:
                if counts is not None:
                    counts["tested"] += 1
                yield base + bit
            i = flags.find(1, i + 1)
        start += length
        size = min(2 * size, _BLOCK_CAP)


def square_centers(N: int, step: int, offset: int, start: int, stop: int, kills=(), counts=None):
    """Yield (u, r) for every u in [start, stop), ascending, outside kills,
    whose center c = step*u + offset gives c^2 - N = r^2 with c - r > 1.

    This is Fermat's method on one progression of centers: each hit is the
    proper split N = (c - r)(c + r).  The classes ANDed are kills, then the
    square screens nonsquare_classes(N, step, offset), so only the u they
    leave reach the exact square test; negative discriminants are never
    squares.  A caller's class that a screen implies is not worth passing:
    quadform.filter_kills builds no QR class for a prime that divides a
    screen modulus.

    counts, when given, is a dict the scan fills as it runs, so a caller
    learns what the scan did from the scan itself: counts["kept"] is the
    number of u in [start, stop) that kills leave, before the screens,
    summed a block at a time and exact once the scan reaches stop;
    counts["tested"] is the number of u that reached the exact square
    test, counted one by one up to the last one the caller consumed.
    """
    classes = [*kills, *nonsquare_classes(N, step, offset)]
    for u in sieve_progression(start, stop, classes, counts, len(kills)):
        c = step * u + offset
        r = is_perfect_square(c * c - N)
        if r is not None and c - r > 1:
            yield u, r


def mod_inv(a: int, p: int) -> int:
    """Inverse of a modulo the odd prime p; rejects a divisible by p."""
    if a % p == 0:
        raise ValueError(f"{a} has no inverse modulo {p}")
    return pow(a, -1, p)


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

#: is_prime is exact below this bound, psi_13 (OEIS A014233), the smallest
#: strong pseudoprime to the 13 prime bases 2 to 41 (Sorenson and Webster,
#: Math. Comp. 86, 2017), and refuses every x from here on, where no
#: answer it could give would be exact.
PRIME_TEST_EXACT_BELOW = 3317044064679887385961981


def _is_strong_probable_prime(x: int, base: int, d: int, s: int) -> bool:
    v = pow(base, d, x)
    if v == 1 or v == x - 1:
        return True
    for _ in range(s - 1):
        v = v * v % x
        if v == x - 1:
            return True
    return False


def is_prime(x: int) -> bool:
    """Exact primality test for x < PRIME_TEST_EXACT_BELOW; ValueError
    for a larger x.

    Trial division by the primes to 97, then the strong probable prime
    test to the 13 prime bases 2 to 41, which no composite below psi_13
    passes.  Past the division x >= 97^2 exceeds every base, so no base
    needs reducing mod x.
    """
    if x >= PRIME_TEST_EXACT_BELOW:
        raise ValueError(f"no exact prime test for {x} >= psi_13 = {PRIME_TEST_EXACT_BELOW}")
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    if x < 9409:  # 97^2: no factor below the small-prime bound
        return True
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return all(_is_strong_probable_prime(x, a, d, s) for a in _SMALL_PRIMES[:13])  # 2 to 41


#: Largest prime bound the toolkit takes: primes_up_to refuses a larger
#: bound before it builds its sieve, a byte per integer, so the sieve stays
#: within 1 MiB; the CLI refuses a larger --prime-bound or --prime first,
#: and audit.verify_violation a record whose modulus is larger.  At the
#: cap the audit judges each E4/O4 instance with one modular power per
#: prime, about 82,000 per pair.
PRIME_BOUND_MAX = 1 << 20


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (sieve of Eratosthenes); ValueError
    for a bound past PRIME_BOUND_MAX."""
    if bound > PRIME_BOUND_MAX:
        raise ValueError(f"prime bound {bound} is past PRIME_BOUND_MAX = {PRIME_BOUND_MAX}")
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return [i for i in range(bound + 1) if sieve[i]]
