"""The fig7b side artifacts are pinned byte-for-byte at seed 0.

``fig7b --quick --obs F --obs-sample 1.0 --trace D --record D`` writes
one ``<label>.trace.json`` causal-trace document and one ``<label>.order``
RRLG order log per point, and one merged ``--obs`` document.  Workers
encode the traces and logs (the trace as JSON text, the log in bulk from
its columns); the parent only writes them out.  These digests were taken
before either encoding moved, so any drift in the encoders, in
grid-order merging or in the executor shows here.  They must hold
in-process (``--jobs 1``) and on a process pool (``--jobs 2``).

As with ``test_quick_golden.py``: after a pure performance change, fix
the code, not the digests.
"""

import hashlib

import pytest

from repro.experiments.cli import main

ARTIFACT_SHA256 = {
    "policy_sppm_Dynamic_1.order": "b13853e451beb72046778fba98c3e4ddab447a0554ffa2e22b6dffd0cc12f1de",
    "policy_sppm_Dynamic_1.trace.json": "fd19993329b563d2838bb4c2a77361bb147a60cd2bde675ce1bd933220333820",
    "policy_sppm_Dynamic_16.order": "0fca42d4d6958d8bdcd7280ce424b2d933da23c4bb8d8dd0e5e79f2d3b24f9f2",
    "policy_sppm_Dynamic_16.trace.json": "abbc225584d52759d618c1387f0ab752645420e64ce8a2abd0d06652486f6ff6",
    "policy_sppm_Dynamic_2.order": "9697c492844b262be649ed6f0a33b03c22eb815d4c625674cb128580d7ee396f",
    "policy_sppm_Dynamic_2.trace.json": "cd094ce1ef568f03bb92abc9798c85193920d9127d8e278135a1ffa82431017c",
    "policy_sppm_Dynamic_4.order": "b2ac5f93dbd5d2b5e93c66c98bc85f322a5dd26b8b1ea9a9c2fbced7aae4e351",
    "policy_sppm_Dynamic_4.trace.json": "80fa6a99e7e4d4d04a5f0fb059fe25e3138f1741774b5939579c710fa24d034e",
    "policy_sppm_Dynamic_8.order": "447bd9ed87b09f46cce76d2786e7817d71025ca87e46f6f386de3f92a9051202",
    "policy_sppm_Dynamic_8.trace.json": "9dd2562f733f169f046d239b854c6e9a85e26c79819007333690c5dda0705055",
    "policy_sppm_Full-Off_1.order": "833a7fdcc9371260ab8738784f17e3757788c907a9bcb46a17ce546961ba3d6c",
    "policy_sppm_Full-Off_1.trace.json": "a03299bffbf4b310dd33138bc15160e361e76104ff9e4d49b7dde2da28dbcab8",
    "policy_sppm_Full-Off_16.order": "9fb7cbf8356bafb519630fa864f7870ea32b6293963cdf56e3829fab65dba120",
    "policy_sppm_Full-Off_16.trace.json": "1ece3723a00f3afda24f1db45c5a4a150da5f3a124a79979b402dc961371ac21",
    "policy_sppm_Full-Off_2.order": "4e42ac713a5d9ccdd45acf424c7a89720f6d28b1b2f4a6cbe9f987c3c5b657fd",
    "policy_sppm_Full-Off_2.trace.json": "b34023d6dcad5486bdf85dff7efddb304f4401d35569d1e878f2cac04674278b",
    "policy_sppm_Full-Off_4.order": "013e545a6f58df0d0ff57df810431354508912ccbf9e30db49054dd81c683da1",
    "policy_sppm_Full-Off_4.trace.json": "59326268f1b7140d5c89fd9b39517eef0efb3e45e8fccfbd52e2d167464efa6d",
    "policy_sppm_Full-Off_8.order": "f0a37e709e5389141044d1d7d436caaa7c77b42a4fac3d3d1af7e1b2cda35f1a",
    "policy_sppm_Full-Off_8.trace.json": "5188dab373dbed6d911f128861f6bde89b5ee90620f348717ea02b24f07cd838",
    "policy_sppm_Full_1.order": "c30e65aa0ceaf5981e1290391bbdd4a3fb828a5174579e6161af68ca0ef70e5d",
    "policy_sppm_Full_1.trace.json": "26fbf5ef642d13253724b74adc5d349cc924b4580ec4348fce21d800d30bf52a",
    "policy_sppm_Full_16.order": "5d10142ffba3686035faec1bb85865833f04e993202613f00a003e35ea2b18ee",
    "policy_sppm_Full_16.trace.json": "c462bb4b2eaec2b0239847740e3c250e0ee2748820a329dc1ea45827745a93ad",
    "policy_sppm_Full_2.order": "42f842c2ed136fa1850f455f15e70be2fd25993b8ce57c17b8962813ae4e5bab",
    "policy_sppm_Full_2.trace.json": "ec997a863f8f8117f86b7f9ee1b729225b98e6e195be7700f8f4e0116459dd56",
    "policy_sppm_Full_4.order": "2096b9339124ae674de8a1fdff0b782ed3d3d3a3c879bdc6383b65396f77baf3",
    "policy_sppm_Full_4.trace.json": "249c834f0ac9022270ebd4dd031f28c80114dab79328176b09e1870fe1ac86f1",
    "policy_sppm_Full_8.order": "3cebb1f960e48ac45e3cfb10ef4d93e542b3d4aa37da412aa048180a4ee98b11",
    "policy_sppm_Full_8.trace.json": "adda6489dc24ce399da8c6993e38ed605e44168ba2913eb0a85e7ab991bea6bc",
    "policy_sppm_None_1.order": "3125e354f7a9885538669e98cf694807027c2acf142d93eec8bd770d94308644",
    "policy_sppm_None_1.trace.json": "2c0f9ffc8eca4f516b66d29179034f93380048414ff116f1a7dc1e94222555e3",
    "policy_sppm_None_16.order": "8aae3de28ad1b1f8ade8156c25f5b515578c4b96b24862b58fb7cda06e418c23",
    "policy_sppm_None_16.trace.json": "81bf070f8d0fae4fd12935757940e3a836c6978b16bceed7ccf06edc7c446c60",
    "policy_sppm_None_2.order": "206a8ef287b5e6c762f57dd79ea5458dd7ccb1b8fc1446a2b01166d4e53882fe",
    "policy_sppm_None_2.trace.json": "8b8e51a7faa7998b18fd0d0c97815e71fb00128747562cba7b2d914c8cab1ade",
    "policy_sppm_None_4.order": "81b8be83cb1878785c0d0e676057eedf87552afd84a769db3098796a29412093",
    "policy_sppm_None_4.trace.json": "98a002b5bfaa853908ef52ff18812cbdb960a55106809fd47d9ff706b01f61d0",
    "policy_sppm_None_8.order": "56bd1cd5059ff32221eacc97a4027da4dce7ca09b96ea6f835843da5dda29b1b",
    "policy_sppm_None_8.trace.json": "07f23281a0012e7c0598473ec7cae20bb1bdb6db4f32dec324dd28075ef76283",
    "policy_sppm_Subset_1.order": "f3223d1875783b7d16204581f5e0eed7e606db3954b930ab16e75cd48cc358b8",
    "policy_sppm_Subset_1.trace.json": "0853e3eb3f1cfc330e31f68f47230c247e4019d2f6c598d12b704e4fe64b12a6",
    "policy_sppm_Subset_16.order": "f3c7654e48f30b2f022befc358fe24c632d8fac0adec3d555ece194ef9ef31bb",
    "policy_sppm_Subset_16.trace.json": "43b39cca8595758e7bf2264a72100a526cef72e2fbb7721bbb96d5344a30150e",
    "policy_sppm_Subset_2.order": "00d55c705a32d8d876fb7a45cad67695b4bddef83f43b25835502b64da0f9227",
    "policy_sppm_Subset_2.trace.json": "3d8382145fd074fda39d4bb3b5d3c84d6da4ccfc8f0e9bb464e745b7b3bfad21",
    "policy_sppm_Subset_4.order": "266322c6d3d0d1fdd8f6c1411f0b64cab1fca931155b67419b93d31e95a968ce",
    "policy_sppm_Subset_4.trace.json": "1110d75d4f3f5369f4d9a49fd6f2bc08fada5323e94f0e39fd257241557adcde",
    "policy_sppm_Subset_8.order": "2e0ee740dbfe856b936454357415254cc3cc3979b4c9b6a95749255a32682f0c",
    "policy_sppm_Subset_8.trace.json": "74ae47db98b8a4fffcd9d042e8463b96babebd42ac2d0710433cf3528d21ea1b",
}

#: The merged metrics document (counters, telemetry summary and sampled
#: series of all 25 points), in grid order whatever the executor.
OBS_SHA256 = "f0afdb266e22a1d4f1af76a3de5d0396461419f091ad9cf725723f19168171c4"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fig7b_trace_and_order_files_match_pinned_digests(jobs, tmp_path,
                                                          capsys):
    art = tmp_path / "art"
    assert main(["fig7b", "--quick", "--seed", "0", "--no-cache",
                 "--jobs", jobs, "--obs", str(tmp_path / "obs.json"),
                 "--obs-sample", "1.0", "--trace", str(art),
                 "--record", str(art)]) == 0
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in art.iterdir()}
    assert sorted(digests) == sorted(ARTIFACT_SHA256)
    drifted = sorted(name for name, digest in digests.items()
                     if digest != ARTIFACT_SHA256[name])
    assert not drifted, f"--jobs {jobs}: {len(drifted)} file(s) drifted: {drifted}"
    obs_digest = hashlib.sha256((tmp_path / "obs.json").read_bytes()).hexdigest()
    assert obs_digest == OBS_SHA256, f"--jobs {jobs}: obs.json drifted"
