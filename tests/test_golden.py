"""Byte-identity guard: the exit code and the sha256 of stdout of seeded
``pla`` runs on the P/R, remark, P/S/E, P/E/F, child-first,
non-root-aggregation and ternary networks, and of one ``pla admissible``
run.

A refactor must leave every entry unchanged, under one worker and several;
an entry run with ``--workers`` prints what it prints without.  An entry
changes only with a deliberate change of output, noted in CHANGES.md.
"""

import hashlib
import json

import pytest

from pla.cli import main

from conftest import NETWORK_DOCS

# aggregation shapes whose bodies are evaluated once per key of atom truth
# values: two bound variables; a bound variable equated with a parameter,
# with an equality, constants and wm in the body; a nested aggregation
TWO_BOUND = "am[R(y) & !R(z) | P(x) : y, z : y != x, z != x, y != z]"
BOUND_IS_PARAMETER = "am[wm(z = y; 0.3; R(y) -> P(z)) & (0.6 | R(z)) : y, z : y = x, z != x]"
NESTED = "am[max[R(z) & P(y) : z : z != y, z != x, y != x] | P(x) : y : y != x]"

# (id, argv with {net} for the network file, network of conftest.NETWORK_DOCS,
#  exit code, sha256 of stdout)
GOLDEN = [
    ("converge-csv",
     ["converge", "--net", "{net}", "--formula", "am[R(y) : y : y != x]",
      "--n-grid", "5,9", "--epsilon", "0.2", "--samples", "40", "--seed", "3"],
     "pr", 0, "0389e7d111dfb6e92e8e9e4efa60818c66fa93d6ee9dee590b7346d842bd7e9f"),
    ("converge-json-workers2",
     ["converge", "--net", "{net}", "--formula", "am[R(y) : y : y != x]",
      "--n-grid", "6", "--epsilon", "0.2", "--samples", "30", "--seed", "4",
      "--workers", "2", "--format", "json"],
     "pr", 0, "ab33505b8a01dca17fcc3ac7fc79db5ae67490c9216b6d7c8334cd42aca5ecb1"),
    ("converge-value-set",
     ["converge", "--net", "{net}", "--formula", "R(x)", "--n-grid", "5,10",
      "--samples", "60", "--seed", "5", "--value-set", "1"],
     "remark", 0, "8f8ec9460f717a8da671f03c76c7fd79553fcfb5e2348eba1d940be90d6bf979"),
    ("infer-mc-workers1",
     ["infer", "mc", "--net", "{net}", "--n", "4", "--formula", "am[R(y) : y : y != x]",
      "--assign", "x=1", "--value-set", "0.5:1", "--samples", "50", "--seed", "6"],
     "pr", 0, "237e153c2d41b6e23e9e21594b97332b202c10c96e96f552da2ce14fa314ab24"),
    ("infer-mc-workers3",
     ["infer", "mc", "--net", "{net}", "--n", "4", "--formula", "E(x, y)",
      "--assign", "x=1,y=2", "--value-set", "1", "--samples", "50", "--seed", "7",
      "--workers", "3"],
     "pse", 0, "3f39821143289c70cb31cd2a05a4655c88299ddda25fad453b701fd97f948b61"),
    ("infer-exact-aggregate",
     ["infer", "exact", "--net", "{net}", "--n", "3",
      "--formula", "max[R(x) : x : x = x]", "--value-set", "1"],
     "pr", 0, "5287d2860b20b6294da12279a51491555688eb70767997472c6a743bf82d2dab"),
    ("infer-exact-assigned",
     ["infer", "exact", "--net", "{net}", "--n", "2", "--formula", "R(x) -> P(x)",
      "--assign", "x=2", "--value-set", "0:0.5"],
     "pr", 0, "6f856c87a5453c1f0aad25c06821ec6a138fb03caf16765410f011b174b4dbc2"),
    # --full-table lists every extension of each alpha table row, by its
    # literals at the parent closure of the body's slots
    ("eliminate-am-edge",
     ["eliminate", "--net", "{net}", "--formula", "am[E(x, y) : y : y != x]", "--full-table"],
     "pse", 0, "5cd5ba6efcc2892d2e73cec2007e6f0b65202102c32ddec3aed0f46676d70b0b"),
    ("eliminate-connectives",
     ["eliminate", "--net", "{net}", "--formula",
      "!am[S(y) & E(y, x) : y : y != x] | wm(P(x); max[E(x, y) : y : y != x]; 0.25)",
      "--full-table"],
     "pse", 0, "3accf44fe47d68d4984bd391f9d3496afa75ddf24b93b975c31d74c851bdc258"),
    ("eliminate-implies-gm",
     ["eliminate", "--net", "{net}", "--formula",
      "(am[R(y) : y : y != x] -> R(x)) & gm[R(y) | P(x) : y : distinct]", "--full-table"],
     "pr", 0, "1e0ec0340f3d5fd15169d638e952c1be0c3a5c568790774622695d4260fb3eca"),
    # the default report: each row's merged support spectra
    ("eliminate-am-edge-compact",
     ["eliminate", "--net", "{net}", "--formula", "am[E(x, y) : y : y != x]"],
     "pse", 0, "9e863f77a12fd2870912b572c88e1378ef5246c192f9041e55d25960afc91f32"),
    ("eliminate-connectives-compact",
     ["eliminate", "--net", "{net}", "--formula",
      "!am[S(y) & E(y, x) : y : y != x] | wm(P(x); max[E(x, y) : y : y != x]; 0.25)"],
     "pse", 0, "70c1825d18d7781f834134b171a0e3c53df9dc66b0290497af8b83ad44e1df19"),
    ("eliminate-implies-gm-compact",
     ["eliminate", "--net", "{net}", "--formula",
      "(am[R(y) : y : y != x] -> R(x)) & gm[R(y) | P(x) : y : distinct]"],
     "pr", 0, "fbeb6eb5df0d30f9217aa7d01d03b63fe5824ece68e573615ba95d2932d5f3f6"),
    ("eliminate-dimension-0",
     ["eliminate", "--net", "{net}", "--formula", "am[R(y) : y : y = x]"],
     "pr", 0, "eb2712dabb468298afb194a360a12219178e2cedd4dfd45fd5673a0bff80e298"),
    ("eliminate-aggregation-free",
     ["eliminate", "--net", "{net}", "--formula", "wm(P(x); R(x); 0.4) -> !R(x)"],
     "pr", 0, "718201e78d4c3dc5291d7eb57f904338bc2881742e8e7c9a3b2a80eca749df50"),
    ("check",
     ["check", "--net", "{net}", "--formula",
      "am[S(y) & E(y, x) : y : y != x] -> P(x)"],
     "pse", 0, "f8ef8248e88791884f0d6ebc46b2561fce39d9c5bef8e67fe607629d8ee47137"),
    ("sample",
     ["sample", "--net", "{net}", "--n", "4", "--seed", "8"],
     "pse", 0, "5ebf41bd3f0114132d5605068d28038bc94aebbf3816dc77e987cc9ad9709791"),
    ("sample-swapped-parent",
     ["sample", "--net", "{net}", "--n", "4", "--seed", "9"],
     "pef", 0, "f0a0ed1937a114047e094c5b2a77f5bcdf0330eac7f1fd681d0c0670b0e869c2"),
    ("infer-exact-swapped-parent",
     ["infer", "exact", "--net", "{net}", "--n", "2", "--formula", "am[F(x, y) : y : y != x]",
      "--assign", "x=1", "--value-set", "1"],
     "pef", 0, "45b535db4399fa2b76315fa735c08d70edf99755a340f020d55b048079208ea3"),
    ("converge-two-bound-workers2",
     ["converge", "--net", "{net}", "--formula", TWO_BOUND, "--n-grid", "4,6",
      "--epsilon", "0.2", "--samples", "20", "--seed", "10", "--workers", "2"],
     "pr", 0, "aa6d24529f770b027ae8b735dbd0fc3e75391b62d07e44d7d7d3e9111b18f7d9"),
    ("converge-bound-equals-parameter",
     ["converge", "--net", "{net}", "--formula", BOUND_IS_PARAMETER, "--n-grid", "4,6",
      "--epsilon", "0.2", "--samples", "20", "--seed", "11"],
     "pr", 0, "3d2033494f828a67fae593036e5c87371ddaa194956fa3f6fc599b7084b47437"),
    ("converge-swapped-atoms-workers2",
     ["converge", "--net", "{net}", "--formula", "max[E(x, y) & !E(y, x) | E(x, y) : y : y != x]",
      "--n-grid", "4,7", "--epsilon", "0.2", "--samples", "20", "--seed", "12", "--workers", "2"],
     "pse", 0, "2839059f83b05123414a88c28b9940b25c18c6131e7085985f0b110413a93b8a"),
    ("converge-exists-at-least-workers2",
     ["converge", "--net", "{net}", "--formula",
      "exists_at_least(0.5)[R(y) | R(x), !R(y) : y : y != x]", "--n-grid", "4,7",
      "--samples", "20", "--seed", "13", "--value-set", "1", "--workers", "2"],
     "remark", 0, "6cd53840366b7d414a635941f7484c5678e87bf53b8c35391ae0d3538cb0234b"),
    ("converge-nested",
     ["converge", "--net", "{net}", "--formula", NESTED, "--n-grid", "4,6",
      "--epsilon", "0.2", "--samples", "20", "--seed", "14"],
     "pr", 0, "3efa794c6ffe36e78a5f3ba0fde8b048e017ea326413718fe87d10b7d361d711"),
    ("converge-nested-value-set",
     ["converge", "--net", "{net}", "--formula",
      "am[max[R(z) & !R(y) : z : z != y, z != x, y != x] | R(x) : y : y != x]",
      "--n-grid", "4,6", "--samples", "20", "--seed", "15", "--value-set", "0.5:1"],
     "remark", 0, "6fbf837111d8e81bf667415d64785852d8b8754103c0c9c9f9191cb0abf4b225"),
    ("infer-exact-two-bound",
     ["infer", "exact", "--net", "{net}", "--n", "3", "--formula", TWO_BOUND,
      "--assign", "x=1", "--value-set", "0:0.5"],
     "pr", 0, "f07fa392c9fa4aec36adcf63d36cf988c1cc9888a16cfa8201ab6556dac6e7cb"),
    ("infer-exact-bound-equals-parameter",
     ["infer", "exact", "--net", "{net}", "--n", "3", "--formula", BOUND_IS_PARAMETER,
      "--assign", "x=2", "--value-set", "0.5:0.7"],
     "pr", 0, "060931234d0e21a143bb2441c26eb6830ef4ec1a6969735a7fae97744ca12cab"),
    ("infer-exact-swapped-atoms",
     ["infer", "exact", "--net", "{net}", "--n", "2",
      "--formula", "max[F(x, y) & !F(y, x) | E(y, x) : y : y != x]",
      "--assign", "x=2", "--value-set", "1"],
     "pef", 0, "8d9f15109b23c7856556654162461ea0138d6482c38c914be548b10e51e82117"),
    ("infer-exact-exists-at-least",
     ["infer", "exact", "--net", "{net}", "--n", "2",
      "--formula", "exists_at_least(0.5)[E(x, y), F(y, x) | P(y) : y : y != x]",
      "--assign", "x=1", "--value-set", "1"],
     "pef", 0, "9b864d14a5260c35717f78c450cfdbba54110b4b53acabd97546694fc8698878"),
    ("infer-exact-nested",
     ["infer", "exact", "--net", "{net}", "--n", "3", "--formula", NESTED,
      "--assign", "x=3", "--value-set", "0.5:1"],
     "pr", 0, "a1003eca561b7c00fca3b4717a86ad41981a48797d92f9e5e99989413c4de307"),
    # the unary network's cell law is built in the sampler's plan order
    # (P, Q, R), against the signature's (R, Q, P)
    ("infer-exact-child-first",
     ["infer", "exact", "--net", "{net}", "--n", "3",
      "--formula", "max[R(y) & !Q(y) : y : y != x]", "--assign", "x=1", "--value-set", "1"],
     "child-first", 0, "cd6fee7018488929d1cb7047cadcac993c5e481a2af080fbe64deaeef8e00b1e"),
    ("infer-exact-reads-every-symbol",
     ["infer", "exact", "--net", "{net}", "--n", "2",
      "--formula", "wm(P(x); S(x); 0.4) & (E(x, y) | 0.7)", "--assign", "x=1,y=2",
      "--value-set", "0.3:0.6"],
     "pse", 0, "bb83571fecea2ff3bbbbacdc6e7dadd9680cf66940851c442f9c7c7edbecbdda"),
    # the sampler evaluates R's aggregating theta at every tuple, on one
    # structure per theta list
    ("sample-non-root-aggregation",
     ["sample", "--net", "{net}", "--n", "5", "--seed", "22"],
     "non-root-aggregation", 0, "4f132ca87ee7f5880a7bc8912366a7185d8acfea74235b8579edb6da3836fd49"),
    ("infer-mc-non-root-aggregation-workers2",
     ["infer", "mc", "--net", "{net}", "--n", "6", "--formula", "am[R(y) : y : y != x]",
      "--assign", "x=1", "--value-set", "0.3:1", "--samples", "40", "--seed", "17",
      "--workers", "2"],
     "non-root-aggregation", 0, "0b85838ab733bca162239e8ffeeef29e28993a0bac730dacfa7961d0cb1989a4"),
    # T reads E at permuted and repeated arguments, Q at a repeated one: the
    # sampler gathers their truth values from E's column at those indices
    ("sample-ternary",
     ["sample", "--net", "{net}", "--n", "5", "--seed", "5"],
     "ternary", 0, "fdbb2742b423f5056be307633a1e852a36e46315b38c0899e29a59aa15907b08"),
    ("infer-mc-ternary",
     ["infer", "mc", "--net", "{net}", "--n", "3", "--formula", "T(x, x, x)",
      "--assign", "x=1", "--value-set", "1", "--samples", "300", "--seed", "2"],
     "ternary", 0, "91f25ff2c70d9f8bfcc3e71fa030736aadb0aa985774e3160982913092f9040c"),
    ("infer-exact-ternary",
     ["infer", "exact", "--net", "{net}", "--n", "2", "--formula", "T(x, y, x) & Q(y)",
      "--assign", "x=1,y=2", "--value-set", "1"],
     "ternary", 0, "bb0db1d5355c102fc54973dccd3ab6f6ee03839545714d38a5898da7495ea8fe"),
    # jittered convergence-testing sequences; the command reads no network
    ("admissible",
     ["admissible", "--function", "am", "--lengths", "50,200", "--trials", "5", "--seed", "7"],
     "pr", 0, "4eb819ba65c3c93841c0ae3addc7f647f0b93948f868c928368a7756da92c6af"),
]


def _stdout(capsys, tmp_path, argv, net, code):
    path = tmp_path / ("%s.json" % net)
    path.write_text(json.dumps(NETWORK_DOCS[net]))
    assert main([a.format(net=path) for a in argv]) == code
    return capsys.readouterr().out


@pytest.mark.parametrize("argv, net, code, digest",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_seeded_output_is_unchanged(capsys, tmp_path, argv, net, code, digest):
    out = _stdout(capsys, tmp_path, argv, net, code)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


WITH_WORKERS = [g for g in GOLDEN if "--workers" in g[1]]


@pytest.mark.parametrize("argv, net, code", [g[1:4] for g in WITH_WORKERS],
                         ids=[g[0] for g in WITH_WORKERS])
def test_workers_change_no_output(capsys, tmp_path, argv, net, code):
    i = argv.index("--workers")
    assert (_stdout(capsys, tmp_path, argv, net, code)
            == _stdout(capsys, tmp_path, argv[:i] + argv[i + 2:], net, code))
