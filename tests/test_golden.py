"""One golden table of CLI byte identity: a command line, its exit code, its stdout's SHA-256 and its exact stderr.

The rows cover every command, both gen formats, --dedup, and the `error:`
and `refusing:` paths that need no fresh interpreter.  They run in process
through cli.main, stdout hashed as its UTF-8 bytes while it is written.
A row changes only where a change is meant to alter output; commands that
need a fresh interpreter, a memory limit or a signal stay in their
subprocess tests.

The large gen streams are pinned once, in test_cli.py, and not again here:
gen at (8,2), (6,3) and (7,1) in both formats, with and without --dedup
(test_gen_8_2_stdout_is_pinned, test_gen_6_3_stdout_is_pinned,
test_gen_7_1_stdout_is_pinned), and gen --dedup at (4,4) in both formats
(test_gen_dedup_4_4_stdout_is_pinned).
"""

import contextlib
import hashlib
import io

from helpers import Sha256Sink
from propb import cli

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    ("gen --k 4 --l 2 --format dimacs", 0, "380d563c70beefae5b5d8442422a09cb2f90e6675ba4276c00bba1bcb8ab004c", ""),
    ("gen --dedup --k 4 --l 2", 0, "aeb8a24e35fb1010417f598df4581341aeaea8dd421e5ca4fc8ab632c3fbcadc", ""),
    ("gen --k 7200 --l 1", 3,
     EMPTY, "error: construction would emit a 14407-bit number of edges, above the cap of 10000000\n"),
    ("gen --k 14002 --l 1", 3,
     EMPTY, "error: construction would emit a 28012-bit number of edges, above the cap of 10000000\n"),
    ("gen --k 14003 --l 1", 3,
     EMPTY, "error: construction would emit more than 2^28001 edges, above the cap of 10000000\n"),
    ("gen --k 1600000 --l 1", 3,
     EMPTY, "error: construction would emit more than 2^3199995 edges, above the cap of 10000000\n"),
    ("gen --k 400009", 3,
     EMPTY, "error: construction would emit more than 2^800013 edges, above the cap of 10000000\n"),
    ("gen --k 10000000000", 3,
     EMPTY, "error: construction would emit more than 2^10011259938 edges, above the cap of 10000000\n"),
    ("gen --k 1000000000 --l 1000000000", 3,
     EMPTY, "error: construction would emit more than 2^1000000001000000000 edges, above the cap of 10000000\n"),
    ("gen --k 8000000000 --l 8000000000", 3,
     EMPTY, "error: construction would emit more than 2^63999999951999991808 edges, above the cap of 10000000\n"),
    ("gen --k 2 --l 1", 0, "59503466fff92b4f4b56e1231f252220b23233a597abbdc646f102586eb1b7e1", ""),
    ("gen --k 2", 0, "59503466fff92b4f4b56e1231f252220b23233a597abbdc646f102586eb1b7e1", ""),
    ("gen --k 2 --l 2 --format dimacs", 0, "2267a7ecdbf3ed4757d8ff3e1690d2e8a43603aa7794acb5b45627a167c63ea0", ""),
    ("gen --dedup --k 2 --l 1 --format dimacs", 0,
     "28a95e545c432a9c27926feade21d437a0445fbe757c8b2c432555592073f531", ""),
    ("gen --k 3 --l 2", 2, EMPTY, "error: l must divide k, got k=3, l=2\n"),
    ("gen --k 2 --l 1 --edge-cap -1", 2, EMPTY, "error: the edge cap must be non-negative, got -1\n"),
    ("gen --k 2 --l 1 --edge-cap 5", 3, EMPTY, "error: construction would emit 24 edges, above the cap of 5\n"),
    ("gen --k 12 --l 1", 3, EMPTY, "error: construction would emit 64899744 edges, above the cap of 10000000\n"),
    ("count --k 4 --l 2", 0, "290b9988a81266d41a1c9f67ab0dd1ccd653b5dd6875dd78804b99e4ede4be54", ""),
    ("count --k 100000000000000000000 --l 1", 3,
     "862cf419c9db64fb444345cc69b1ea742a58974266dfbef6b40ab2af171ede0a", ""),
    ("count --k 300000 --l 1", 3, "009c9da394de24d96bb785a4eae3d2e94cb108b5e3cdc4351d26da0452a6d761", ""),
    ("count --k 6 --l 3", 0, "4893e692699554fc06268ea20e43636d5d12485b68eca7a3412aae2cc5932681", ""),
    ("count --k 5000 --l 1", 0, "7efb6a6ffb22c4308d6b9db36c14ff5b649d350886a27ff389d6909e74820b99", ""),
    ("count --k 128 --l 128", 3, "5997ed14322d99c043fc9c48d189576c442210669dc8c55ab5b13caf9dad101c", ""),
    ("count --k 1000000000000", 3, "1523afb819a05ef4967b8e6afd5094d3edc266dc9c2b5efcc78a1c8f1c1360d8", ""),
    ("count --k 8000000000 --l 8000000000", 3, "59d0d074f4bb568b9684e707d1fd009b69c145e3ce3746a4932d50283f21c73e", ""),
    ("bound --k 118", 3, "161730db3d73ea373372ac359abfc23faeeade765505562b0486f73ac524e5d7", ""),
    ("bound --k 12", 0, "7e1f6af04c2b8bf2b10def1c0d3e1ee0a354eccc06fe63e1834de9b08e41aa47", ""),
    ("bound --k 0", 2, EMPTY, "error: k must be positive, got 0\n"),
    ("bound --k -200", 2, EMPTY, "error: k must be positive, got -200\n"),
    ("bound --k 4096", 3, "9762d4f2f2264ffdcabfdd38bd47e228c1595187e498c573c6b7e785fa6f6156", ""),
    ("witness --k 20000 --l 20000 --seed 1", 3, "c03f2cf6e6f5701095de497b894642713c19de99e975e3e3f8cd18f4253d68cd", ""),
    ("witness --k 1000000000000 --seed 1", 3, "ad54043265ab2ba53c2b1c974669a6212051a64970b8bcfbad6211ffa96e5041", ""),
    ("witness --k 8000000000 --l 8000000000 --seed 1", 3,
     "7169dda483b1fdee59bf881c5719237dda0d281f5d32e62caaa62c8031c663d8", ""),
    ("witness --k 8 --l 2 --seed 1", 0, "ae5a1c034439a960a21fcdccf71f4c210f217281590944e0d6d1c8dbcfab4f58", ""),
    ("witness --k 4 --l 2 --seed 7", 0, "339c9ee3221b28a2e5df1577a225e18b406904330097ff845c859249f8d8428d", ""),
    ("witness --k 6 --l 3 --seed 1", 0, "26692876056a7b3ecf9842f91771467ad21ed1a8d527e7131478d59daa121d6d", ""),
    ("witness --k 4 --l 2", 2, EMPTY, "error: witness needs --coloring FILE or --seed N\n"),
    ("witness --k 4 --l 2 --coloring /nonexistent/coloring.txt", 2,
     EMPTY, "error: cannot read the coloring file: [Errno 2] No such file or directory: '/nonexistent/coloring.txt'\n"),
    ("witness --k 3000 --l 3000 --seed 1", 3, "20e625d7ae181140db0574c0fa115ac495c5700e349c4c089ba1af44bcd0e2d1", ""),
    ("witness --k 7140 --l 7140 --seed 1", 3, "51354650824bd583d79190dd79fb25d23a5ca10c22ca2ee3545f4665df5ae30e", ""),
    ("solve --dedup --k 3 --l 3", 0, "f4d818f756520b8032d58ec1c15ad9c19921502e7ef961f0b9765d7313afaccf", ""),
    ("solve --dedup --k 4 --l 2", 0, "a8bf8872e5c921fac7983883ad726ab40b856f9ee40a248dfb87fce28bdd8d31", ""),
    ("solve --dedup --k 7 --l 1", 0, "878c11336464583364172421ad3441ef65e89422d672123b5eb3da8a1022ed72", ""),
    ("solve --dedup --k 6 --l 2", 0, "9a4d44dde025d3e2ca4f5b629e7c26601b361e619751f992d8625f6adb4846f6", ""),
    ("solve --k 3 --l 3", 0, "e129c74ae9a897076663e2b64c8cde6fc54aa15394bb63aba06794f6333a313b", ""),
    ("solve --k 7 --l 1", 0, "9b3672cb74f4560ef8d85b952e641df5e08da0e5c7ee926a4e94b9d4b2456904", ""),
    ("solve --k 2 --l 2", 0, "e3572ffbecec06dd7c149f7b5cec3114f2194ca1d39bcedd3fd6d7565d92b3ac", ""),
    ("solve --dedup --k 4 --l 1", 0, "b99ef77ac17170e9695448dec163db8116da857e2bbdb749c39af1ba9c4a9b18", ""),
    ("solve --k 7200 --l 1", 3,
     EMPTY, "error: construction would emit a 14407-bit number of edges, above the cap of 10000000\n"),
    ("solve --k 1600000 --l 1", 3,
     EMPTY, "error: construction would emit more than 2^3199995 edges, above the cap of 10000000\n"),
    ("solve --k 2 --l 1 --edge-cap 5", 3, EMPTY, "error: construction would emit 24 edges, above the cap of 5\n"),
    ("verify-small --k 7 --l 1", 0, "cb81795bb46206e54d9a85ee4bdb989a5f933d846f3a8b0b9ce28d02b712ba99", ""),
    ("verify-small --k 20000 --l 20000", 3, "b0cf5fb165761efc10cc608c641f3a7bf6c65eede0c714cac88f94796e07ec6a", ""),
    ("verify-small --k 8000000000 --l 8000000000", 3,
     "0a29d5cd131f410f06e7472b80717c1ecb4cad639d5c53bf4626a9eea7e826dd", ""),
    ("verify-small --k 2 --l 2", 0, "1fcc0ccdd67fa0c946727a85b9ba90e7d1fae24d64c2b2480b6eafcfe3a67d0c", ""),
    ("verify-small --k 4 --l 2", 0, "11d65415521beec462435715adfd4b8522828c96efb194eb885df57f3a3c4159", ""),
    ("verify-small --k 3 --l 3", 3, "7db6f5d0073331b3fa7d84cc86ee025980547966b7c7bf660a11a49852804a81", ""),
    ("verify-small --k 4 --l 2 --edge-cap 5", 3,
     EMPTY, "error: construction would emit 5376 edges, above the cap of 5\n"),
]


def run(argv):
    """cli.main(argv): its exit code, the SHA-256 of its stdout bytes and its stderr."""
    out, err = Sha256Sink(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.hash.hexdigest(), err.getvalue()


def test_every_golden_row_is_reproduced_byte_for_byte(monkeypatch):
    monkeypatch.delenv("PROPB_EDGE_CAP", raising=False)
    mismatches = [(argv, got) for argv, *row in GOLDEN if (got := run(argv.split())) != tuple(row)]
    assert mismatches == []
