"""Tests for tools/same_bytes.py: the output of its corpus is pinned."""

import importlib.util
import time
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _TOOL)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

#: The digest of each corpus command, computed at the commit before the
#: E4/O4 audit stopped building admissible-residue masks.  An intended
#: output change updates the pin and records the old and new digests.
PINNED = {
    "audit --range 1:400 --claims all --prime-bound 97 --json {out}":
        "46d4804ef89738b53364f07c1349f0370c71c42ebe2cc0eb09edf1752a68f5ea",
    "audit --range 1:40 --claims all --prime-bound 2000 --json {out}":
        "46d46bbbb452f4d2c890a0cec71134716a508e08d1fde6bc0f1246e62a8ff029",
    "audit --range 1500:1503 --claims all --prime-bound 8000 --json {out}":
        "36ca754106b94f54e5c2de113d81b6af0cde7c7516cded0b9e6e92db577b5ba7",
    "audit --range 1:40 --claims all --fermat-indices 3,4,5,6,7,9 --json {out}":
        "82b073be764063a49d36a39eba12ddb58886819442b730e0dea815816f6fb99c",
    "audit --range 1:2 --claims E4 --prime-bound 1048577":
        "061b8ba0871c0a0c0e5764c53ef713ea1e8e254f00f992ddd240406d3b7c2fed",
    "factor --n 4":
        "c505b78f55c986b186b39e174395e05bdc77cea2010ebe280c71f6bb84fbc3a5",
    "factor --n 4 --json":
        "efaa3cf52e50dbaaeac37913ba2e61a6a35c95473cf727f5c7455e131ac1cf6e",
    "factor --n 5":
        "d2f594f87c96884c1807f4f784123bdd61022f50c66b89dd1fe49b8086b1f0bd",
    "factor --n 5 --json":
        "321f8e4cb11249b0df5be16ba2ebb35e8447636464796d85cbee2f12df894516",
    "factor --n 3001 --all":
        "6609786e663d3886571394b9d2d4b0fca0bcc4ba7e634296670eff8dc00334ee",
    "factor --n 3001 --all --json":
        "fa07fc9468ea796cd51ba8875e191897d534bc293ba836dd69aeb28238bae696",
    "factor --n 1500 --heuristic-filters --prime-bound 500 --all --json":
        "c8fed1eefbee6cdacbc3ff477ab5e3fcaa07dd76600a9063287fec97be450338",
    "factor --N 4000001 --all":
        "3e4a8f624e253d1476cf82a1fab1807fd0627a5c20c00d70d40d8cca3de37ff7",
    "factor --n 10000000002 --json":
        "4c2d9e1597dd23b75526ad9ba7d9aaf89b8a1123cec6645bd886bab574f336cd",
    "factor --n 123456789012 --all":
        "d0c6c0a12481446dc644b8faa598c9b67642dea73d7bf6a486a2ff174a21b43c",
    "factor --N 100":
        "f99b74bbb2e9464220b947c4f7ada576f02343378380813e2bdaf8663f120475",
    "factor-generic --N 16000105000171":
        "99e1c5e689d98f19c1070a65911e3b8f8f142ad291fb01f6cf8e7b15f5a08b1b",
    "factor-generic --N 16000105000171 --json":
        "bd12b0873f9e7f8501d9d072afa830684a8fab3775a478c39c667fafeaca60a2",
    "factor-generic --N 10403 --budget 0 --json":
        "5faa66efc387a315723fac406b958f880838e1a17f22c9dc73ad4211ba34df8d",
    "factor-generic --N 101":
        "baeb9ed36fc6e328ac4beb4bea751bdbea25cdd3eecb1253bd1c83210b09e4e3",
    "factor-generic --N 8":
        "f5eeea41197ab5dbf110f72309d7073c4afd311915907be0df712044e15b89eb",
    "fermat --index 5 --mode lucas":
        "333162da5421d918f7b3178c06b6e85564295e259bd6a92827518d5934865f66",
    "fermat --index 12 --mode lucas --budget 1588 --json":
        "4bd4902734465ead495c20d36667e9eb1f799de66b61922f94c33dc21c7e100e",
    "fermat --index 5 --mode lambda --filters on":
        "b334a1357fd31491085dcaaf8fdc33d968edb00e1dff59e19cebc5fb422a5831",
    "fermat --index 6 --mode lambda --json":
        "539bda02bc67363a8a1ef569acac1caec53c6fb4bccec112bacb939ad3c2f74f",
    "fermat --index 7 --mode lambda --budget 3000 --filters on --json":
        "51e7d2b5353f090c9701525bd6e8575beadeaf6079ca55f1e5430588fb096e0c",
    "fermat --index 31 --mode lucas":
        "51a24da941350f9234455df997dd5d389f08989f8b1eeeab873c48b4d2737f34",
    "candidates --n 4":
        "4c7818525d0059fa4e9c610f23ae834689995400f09b8bd4c11d6e73cdc5e0e2",
    "candidates --n 1500 --prime 97":
        "8578e8e18cf8ed319a259bbb25ce3192fa1a9d77ebb233e204230951689efbfa",
    "candidates --n 1501 --prime 1009 --json":
        "4ca3bec134307311ef602b894b240c0c17e0fc40acae58565fbf0343a7395e64",
    "candidates --n 10000000000 --json":
        "bb0ac1d11032bf103f0e1203d7d8a434220d66307e6d39c9e30944fcc6b7ff42",
    "candidates --n 4 --prime 9":
        "cb8d1792a2ab420e4e1239f6c18ab7ee529290cf8ff2268d59100f842e10fe5e",
    "bench --targets 4,9,16,30,56 --strategies all --repetitions 1 --csv {out}":
        "7063e56fe49f2a12049a47d44985e6c120e47552dbd3be61ac495f346871b972",
    "bench --targets 1500 --strategies QuadInterval,QuadIntervalQRFiltered --repetitions 1":
        "23a56d5e7731fafb443d44787af68fb7d321f2fb7324c5cd7eeedc4e64510934",
    "bench --targets 4,5 --repetitions 1":
        "4007d2048233a62704bde640e4feb90c5e5e5b1ff20ca534a541519d95418316",
}


def test_corpus_output_is_pinned():
    assert tuple(PINNED) == same_bytes.CORPUS
    start = time.perf_counter()
    digests = {command: same_bytes.digest(command) for command in same_bytes.CORPUS}
    assert time.perf_counter() - start < 10
    assert digests == PINNED

