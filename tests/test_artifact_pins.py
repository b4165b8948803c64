"""The SHA-256 of every artifact, pinned.

`run --seed 7` and the communities -> measures -> capitalists -> stats
subcommands run on one small seeded graph whose original ids are drawn from
[0, 2**62), so the pins cover wide ids as well as every stage.  A change
that moves an output edits PINS, and CHANGES.md names each moved file with
its old and new hash: the table is a check, so every edit to it is declared.
The k-means fits behind the pins were byte-identical under the OpenBLAS
kernels SkylakeX, Haswell, Sandybridge and Katmai (`OPENBLAS_CORETYPE`), so
the pins should hold on any x86 machine.
"""

import hashlib

import numpy as np

from roleforge import synth
from roleforge.cli import main

PINS = {
    "run/anova.tsv": "dde410761d3eea5514be9f6352fd751386d5ea243fb592ed54ae2c19daa3b01b",
    "run/capitalists.tsv": "72829947512f3f3c071e92993a41af9a7f06c0f6d3336e40ef580aedda62b792",
    "run/capitalists_crosstab.tsv": "3201cb0b11698c048bedeffb17341f833c1a4c534886e01c4bbb6b88f2ef3ae0",
    "run/centroids.tsv": "ac097bf07e6be628d464ff39a9710772fd30d0ca946c22ddd0bebfadfdeb0930",
    "run/clusters.tsv": "6041ab30fc152c48d7bf589b72d61f2c54ca8448aa59d159a006e7d36899bb4f",
    "run/id_map.tsv": "0bddfa69f4630488b654b2f2aa4fb1583a2703ec259a68466fa9a15fc56a41e1",
    "run/manifest.json": "dcfe3f49b98d012e34b7aa5b96b1a9b639f647de26bdbad0730549eb40a68dde",
    "run/measures.tsv": "fb456968bb8a7bfc94db800d0e4bf390bd254017ed6f7c893dba399a8b469b0e",
    "run/pairwise.tsv": "d874051a633e097997f8383627fea81b3ffd9788f99b02277eb062294992394e",
    "run/partition.tsv": "98b49bf3349e085a0ad9164313aefb8b71ec0961b862dce7fdbf5a28a1aefe04",
    "run/report.txt": "7361070fb94eb094fa3085ff1770de154bc327dd033b1e6ee5e14ae6468610ba",
    "run/report_group_means.tsv": "b02a42c80914cf015c24dddf199b781beb730f8d982686949750f8e3e5bdeffc",
    "run/report_groups.tsv": "91dd6bfb09f8517b9557d3dee0b138d3eb0162b7caa1e2cc486879d704157e6b",
    "sub/cap_capitalists.tsv": "4729180dec77493a58addaf88f546fe9b750c083d147adc8c9212eda6a6fcbeb",
    "sub/cap_crosstab.tsv": "7a9f87a60abd7e5968c0660211eef624e74a8fe5c86f56a8651b901cabd130bb",
    "sub/measures.tsv": "5b8a2def3e9cc2f640d3ca99c442ace770d29e79031a40756fcbf22754ea295d",
    "sub/partition.id_map.tsv": "f410b300d81e21886a567b0233df4ef43c7fff64857d2873d22ff92590c5ac49",
    "sub/partition.tsv": "d667e81f72122928b0c6ea17a52593df1bd1edbeea148b302c6e386c57026fa2",
    "sub/st_anova.tsv": "818133927b289bd0a347e608747873c28b0c2cdd6617a3ab4e7b8eb1730e9c66",
    "sub/st_pairwise.tsv": "1e8789f1f3c52a3df1ab372f7db12a31bc161fbe07aaae3dff70587917241a39",
}


def test_artifact_hashes_are_pinned(tmp_path, capsys):
    g = synth.capitalist_community_network(n_comms=10, comm_size=200, n_capitalists=20, cap_ext_out=900,
                                           seed=7)[0]
    rng = np.random.default_rng(7)
    ids = np.sort(rng.choice(2**62, size=g.n, replace=False))
    src = np.repeat(np.arange(g.n), g.out_degrees)
    order = rng.permutation(g.m)
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{a} {b}\n" for a, b in
                             zip(ids[src[order]].tolist(), ids[g.out_indices[order]].tolist())))
    run, sub = tmp_path / "run", tmp_path / "sub"
    sub.mkdir()
    for argv in (["run", "--input", edges, "--output-dir", run, "--seed", "7"],
                 ["communities", "--input", edges, "--output", sub / "partition.tsv"],
                 ["measures", "--input", edges, "--partition", sub / "partition.tsv",
                  "--output", sub / "measures.tsv"],
                 ["capitalists", "--input", edges, "--clusters", run / "clusters.tsv", "--output", sub / "cap"],
                 ["stats", "--measures", sub / "measures.tsv", "--clusters", run / "clusters.tsv",
                  "--output", sub / "st"]):
        assert main([str(a) for a in argv]) == 0, capsys.readouterr()
    got = {f"{d.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
           for d in (run, sub) for p in sorted(d.iterdir())}
    assert got == PINS
