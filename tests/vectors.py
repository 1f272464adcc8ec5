"""Frozen reference vectors shared by the unit and acceptance tests.

PROBE_15 is the 15-symbol, 5-color word that is 2-distinguishable in both
modes and 3-distinguishable linearly but not cyclically (windows 13 and 14
both hold {1,2,4}).  BASE_K3/BASE_K6 are the base words of the window-3
recursion; X9/Y9/Z9 are the pieces the first recursion step must produce on
nine colors.  CROSS_S/CROSS_T are the documented interleaving operands whose
product is a 150-symbol cyclic 5-distinguishable word on ten colors.
CERTIFIED_MAX holds cells that the exhaustive search settles.
"""

PROBE_15 = "122344511335524"

BASE_K3 = "111222333"
BASE_K6 = "111222333" "116631552245353244336214146262514365554446665"

X9 = "119931882278383277339217179292817398887779998"
Y9 = "58519457169944865959747418669488676757"
Z9 = "5834925847368247693572698"

# Eulerian circuit of the 6-vertex complete graph minus the matching
# {1,2},{3,4},{5,6}, and the word it yields once first occurrences double.
CIRCUIT_6 = (1, 3, 2, 4, 5, 1, 6, 2, 5, 3, 6, 4)
DOUBLED_6 = "113322445516625364"

CROSS_S = (1, 1, 3, 3, 5, 2, 4, 1, 2, 3, 4, 5)  # 12 symbols, 5 colors
CROSS_T = (
    6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10, 10,
    6, 6, 8, 8, 10, 10, 7, 9, 6, 8, 10, 7, 7, 9, 9,
)  # 30 symbols, colors 6..10

# Longest cyclic m-distinguishable words on k colors, proven by exhaustive
# search: (m, k) -> (cap, max length, the smallest canonical witness).
CERTIFIED_MAX = {
    (2, 8): (32, 32, "11223142516273344556384758667788"),
    (3, 6): (56, 54, "111222311422513324413624515162625533344453636464555666"),
}

SIZES = (50, 200, 1000, 10000)

# Published minimal-color table: rows by window size, columns by SIZES.
KMIN_TABLE = {
    2: (10, 20, 45, 141),
    3: (6, 10, 18, 39),
    4: (5, 7, 11, 21),
}

# Published gain table for 4x3 blocks, rows M over SIZES, columns N.
GAIN_43 = (
    (0.434, 0.424, 0.415, 0.401),
    (0.405, 0.401, 0.396, 0.386),
    (0.387, 0.385, 0.382, 0.376),
    (0.369, 0.368, 0.368, 0.364),
)

# Published gain tables for square blocks, same layout per block size.
GAIN_MM = {
    2: (
        (0.588, 0.575, 0.564, 0.552),
        (0.575, 0.565, 0.557, 0.547),
        (0.564, 0.557, 0.551, 0.543),
        (0.552, 0.547, 0.543, 0.537),
    ),
    3: (
        (0.458, 0.444, 0.430, 0.415),
        (0.444, 0.434, 0.425, 0.411),
        (0.430, 0.425, 0.418, 0.406),
        (0.415, 0.411, 0.406, 0.397),
    ),
    4: (
        (0.411, 0.386, 0.370, 0.354),
        (0.386, 0.367, 0.355, 0.343),
        (0.370, 0.355, 0.347, 0.337),
        (0.354, 0.343, 0.337, 0.330),
    ),
}

# Four published cells are inconsistent with the tables' own generating
# formula, so no rounding rule can reproduce them; see the table tests for
# the contradiction pairs.  Keys are (m, n, M, N): published -> computed.
GAIN_ERRATA = {
    (4, 3, 200, 200): (0.401, 0.400),    # exact 0.400927
    (4, 3, 10000, 50): (0.369, 0.368),   # exact 0.368551
    (3, 3, 50, 1000): (0.430, 0.432),    # exact 0.432738
    (3, 3, 1000, 50): (0.430, 0.432),    # exact 0.432738
}
