"""Frozen oracle values for the benchmark operations, each with its source.

Nothing here is read from quiverhopf's own output at run time.  Values marked
"frozen" were produced once by the dense test-only symmetrizer
``quantum_symmetrizer(c, n, insertion_word)`` (a different reduced word per
permutation than the production path uses); ``test_qhbench.py`` recomputes
them.  Every other value is taken from the literature or computed by hand.
"""

# Nichols algebra of the transposition module of S3 (the sign character on
# the centraliser of (0 1)): the Fomin-Kirillov algebra E_3, Hilbert series
# (1+t)^2 (1+t+t^2).  Milinski-Schneider, Contemp. Math. 267 (2000).
S3_TRANSPOSITION = [1, 3, 4, 3, 1, 0]

# Fomin-Kirillov algebra E_4, degrees 0..3 of 1,6,19,42,71,96,106,...
# Fomin-Kirillov, Adv. Geom. Combin. (1999); Milinski-Schneider (2000).
# S4 (0 1):1 types 1 and 3 are the two cocycles that give E_4.
FOMIN_KIRILLOV_4 = [1, 6, 19, 42]

# S4 (0 1):1 types 0 and 2 (frozen, insertion-word symmetrizer).
S4_TRANSPOSITION_OTHER = [1, 6, 33, 180]

# S3 (0 1 2):1, types 0, 1, 2 (frozen, insertion-word symmetrizer).
S3_THREE_CYCLE = [[1, 2, 3, 4, 5, 6], [1, 2, 4, 6, 10, 16], [1, 2, 4, 6, 10, 16]]

# A module graded by the identity has braiding c = flip, so its Nichols
# algebra is the symmetric algebra: dim S^n(V) = n + 1 for dim V = 2.
SYMMETRIC_DIM2_TO_DEG5 = [n + 1 for n in range(6)]

# Character degrees of S7 and S6: the dimensions of the Specht modules,
# by the hook length formula (James-Kerber, The Representation Theory of the
# Symmetric Group, 1981), in the table's sorted order.
S7_DEGREES = [1, 1, 6, 6, 14, 14, 14, 14, 15, 15, 20, 21, 21, 35, 35]
S6_DEGREES = [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]

# The splitting prime chosen for S7: the least prime p = 1 (mod exp S7 = 420)
# with p > 2|S7| = 10080 (the rule in the README; 10501 = 25 * 420 + 1).
S7_PRIME = 10501

# RSRs of ramification e:1 are the linear characters of G; isomorphism
# classes are their orbits under Aut G.  Counted by hand:
# - D4: four characters of D4/[D4,D4] = C2xC2; the outer automorphism swaps
#   the two reflection classes, so two of the three non-trivial ones merge.
# - Q8: Aut Q8 = S4 permutes the three non-trivial characters transitively.
# - A4: the outer automorphism (conjugation by a transposition of S4)
#   swaps the two non-trivial characters of A4/V4 = C3.
# - C2xC2: Aut = GL2(F2) = S3 permutes the three non-trivial ones.
# - S3xC2 = D6: the automorphism (x, c) -> (x, c * sgn x) swaps
#   1 (x) eps with sgn (x) eps and fixes sgn (x) 1.
E1_AUT_ORBITS = {"D4": 3, "Q8": 2, "A4": 2, "C2xC2": 2, "S3xC2": 3}
