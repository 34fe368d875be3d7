"""Golden payload digests: the command-line payloads are pinned byte for byte.

Each request below runs through :func:`stochint.cli.main` with ``--output``
and the SHA-256 of the written payload is compared with :data:`DIGESTS`.
The digests were recorded with the monomial-polynomial coefficient engine,
so any rewrite of the exact engine, the serializers or the q-scans that
changes one byte of a coefficient table, a tensor export, an error table
or an order table fails here.  The run manifests of
:data:`MANIFEST_REQUESTS`, one request per route through the tool, are
pinned the same way in :data:`MANIFEST_DIGESTS`.

To re-record after an intended payload change, run this module as a
script from the repository root (``PYTHONPATH=src python
tests/test_golden.py``); it prints the new :data:`DIGESTS` and
:data:`MANIFEST_DIGESTS` literals.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from stochint.cli import EXIT_OK, main

#: (k, weights innermost first, q) of the tensor export grid.
EXPORT_GRID = (
    (1, (0,), 10),
    (1, (3,), 6),
    (2, (0, 0), 30),
    (2, (1, 0), 12),
    (2, (0, 2), 10),
    (2, (2, 1), 6),
    (3, (0, 0, 0), 8),
    (3, (1, 0, 0), 5),
    (3, (0, 1, 2), 3),
    (4, (0, 0, 0, 0), 4),
    (4, (1, 0, 0, 1), 2),
    (5, (0, 0, 0, 0, 0), 2),
    (5, (0, 1, 0, 0, 1), 1),
)


def golden_requests() -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every pinned payload, ``--output`` omitted."""
    requests = []
    for fmt in ("json", "csv"):
        for n in range(4, 37):
            requests.append((f"coeffs-{n}-{fmt}", ["coeffs", "--table", str(n), "--format", fmt]))
        for k, weights, q in EXPORT_GRID:
            label = f"export-k{k}-w{''.join(map(str, weights))}-q{q}-{fmt}"
            argv = ["export", "--k", str(k), "--weights", ",".join(map(str, weights)),
                    "--q", str(q), "--format", fmt]
            requests.append((label, argv))
    for n in (1, 2, 3, 38, 41, 42):
        requests.append((f"error-{n}", ["error-table", "--table", str(n)]))
    requests.append(("qtable-39-json", ["q-table", "--table", "39"]))
    requests.append(("qtable-39-csv", ["q-table", "--table", "39", "--format", "csv"]))
    requests.append(("qtable-39-dt0.01", ["q-table", "--table", "39", "--dt", "0.01,0.015"]))
    return requests


def payload_digest(argv: list[str], directory: Path, suffix: str = "") -> str:
    """SHA-256 of the payload written for ``argv``, or of the file named with ``suffix``."""
    path = directory / "payload"
    assert main(argv + ["--output", str(path)]) == EXIT_OK
    return hashlib.sha256(Path(str(path) + suffix).read_bytes()).hexdigest()


DIGESTS: dict[str, str] = {
    "coeffs-4-json": "68539ba5cb2b8b04689e2573c2ef85ec14c2e774fdba9cc4b032edb69fda351e",
    "coeffs-5-json": "733e31234abce1459cd117345bbb8b88ab016a216c3f44f32d1ffe374dfdb417",
    "coeffs-6-json": "ba9ff12e987b2a551d210c80bbc881988a94360ccf22d2b45401e1cc14813c8c",
    "coeffs-7-json": "0e00062fe92f16046cffd06e17b3ebbb16f7c9ee7fb08ab85af857c37ff5e26a",
    "coeffs-8-json": "f9c3899bff5047fee80f921a7687c51f585cc07fd3be346beb615e456c455407",
    "coeffs-9-json": "dd5db8e2766a7a2b3ae78e65b0eade78a32b08d2cfeacae8544e57bfae470e5b",
    "coeffs-10-json": "497e2baa0e78b9fbd75c3ed4759f1bcdc9111cb4ac15bb29d1d29edd69eb929b",
    "coeffs-11-json": "b20cc50d8d4bfe6bde5883b294bf1ec88a62d03b484ef73ef040c0c74ec70c8c",
    "coeffs-12-json": "06edc2e4d0b5225ef1f2f8d8d4addf31acbff2428fde9cbd2d17e6e9c72119b4",
    "coeffs-13-json": "2c7f978bbdf626a5db346d7417f918b7f9eae64eb608135947ecaaa8d13edd1a",
    "coeffs-14-json": "1f312edd0d49d056fae53b6cc852389fd448e238030b6727ec67c6e31d8a49b3",
    "coeffs-15-json": "14640ee707d9b2efeb9a2dcdf7cffabfe6f85e74f48c14f36a6f22b6cfdfe7a4",
    "coeffs-16-json": "8a71596507f2b037a0bfc6c66aeabcee306004a3d8502156ade7cf3eeb6f93a5",
    "coeffs-17-json": "a8a356b787acc643f6a23e7eb384d65e2db9f5ded5db0d9bb846a895e2ae9352",
    "coeffs-18-json": "d8f61f4e7f6d1bb3961065df9cfa6a6a7a63cab571b759bd6bfd84b6c6a9d637",
    "coeffs-19-json": "72ac265214bd69200119e036cf428021386527d0ab4d7c7e8bc5c9219b80a03a",
    "coeffs-20-json": "4cd1b5eb115e13a6a4df069930f0d56eb7560f8eb5dbb9d731d50df148249b3c",
    "coeffs-21-json": "4398def48d89f9502a9178fc4b7c2c90babb14572724fcc48dda959aa6a6375b",
    "coeffs-22-json": "e7f963a0552ef52d296fca30fad97dfbdeb942730207df9213ac6195e9415565",
    "coeffs-23-json": "481bca0276737308133aec801ad574e76f61c7bec86918a305ad56acf19eddc0",
    "coeffs-24-json": "a5d16feeebbca062e2e90c4960e0529605c140a7707040156f116ce9827b80cf",
    "coeffs-25-json": "dce8288037c8f1e9a1b2bc9bfa0cbff1058ec40e9aaf08667a34f647b6ed0356",
    "coeffs-26-json": "851b3cfed3830dcdb04ddfbcc9101258b7809c967faa1410c8a9ea99315f9a56",
    "coeffs-27-json": "cd858ea5b6d746b046a4f245ed52cb2d7dbfc2e4279117939ea9d57e30ce740e",
    "coeffs-28-json": "80f7497322e3cbe01a6c3c8c8cde80f4c4efd945adb878c7b4c2e3d591f72f67",
    "coeffs-29-json": "68ad7903a219c0ecf33b90d469bcd1f8c10d2453f5b1860872f11194b3c0c72e",
    "coeffs-30-json": "bc32d7d97287dc683ab8dd4d1a67703634cc586e48c9ca572a8674edddf88694",
    "coeffs-31-json": "e37ea965226c9c19695a80fb3cb138cf471accd6f85b41e393657e926d4d6d17",
    "coeffs-32-json": "6151a6487d3801cccc2af0de87cf3e82868c87233eb70eff3b64eec339410e1b",
    "coeffs-33-json": "7ec14efb3f69bafffd4d00df517aedf8ca066a9abc753ef9c39cc8f1791e7982",
    "coeffs-34-json": "d256734a78c0600e2a8c461b5a7484d9428f998f72e97eb4b2acf0fa8cf5958b",
    "coeffs-35-json": "61fb8988c51ab564f793bc02c68ccb22ee71f1a2c002007a97352120aeafee86",
    "coeffs-36-json": "0640f5a0beed4152d5311beba9cf49257648db11943339d173bffdac5f9ac93d",
    "export-k1-w0-q10-json": "08b74b6d054c0d58e69c7fb9515c07a9ea9d754d99151565b6b1bfa74f2cb689",
    "export-k1-w3-q6-json": "6aba47477dc56abcd0dfdf4873d4c22f4c72833192720c9b49742967f502cd1a",
    "export-k2-w00-q30-json": "3df00f1ea76f3ad69e1e85757908919778a37e260333ef01707f14db92440fb8",
    "export-k2-w10-q12-json": "fadf79b69764cb122ecfd2da5ed9287ccb8627592f9a8afa7ee9df8f0f8844f1",
    "export-k2-w02-q10-json": "7b8c18e712bbd8ebd562d7255b840ce91a8be23cb74ef201d5389287d78cab96",
    "export-k2-w21-q6-json": "7947b512cb6a2d281f2c6427c8e8e0dcdc92856b0fce02d2e2161c8e26db6222",
    "export-k3-w000-q8-json": "9b48b38db7520bc8bc2efdd79f997cfb33093752dc9b920f56f0678aac5556d7",
    "export-k3-w100-q5-json": "0485eb26bfa3063860b5ca7b8bfee4b4c50ba52ea5d83ea08c77a66142cb725f",
    "export-k3-w012-q3-json": "314ad32a2797df33b8abdc16a7f7b530b519881c254a89d260e047b785a84870",
    "export-k4-w0000-q4-json": "b05ee86616948563ee47a23358bd19db94de793ef17c94c6aa203953c8994d20",
    "export-k4-w1001-q2-json": "4eaf1d8dbffdef8442a36d509c157efbc9026cbfd601d608fea42d32df8cec0d",
    "export-k5-w00000-q2-json": "ba8df69545570428372621e7e87836eb1a2a240f4034fcf8c2b2aa63652402a9",
    "export-k5-w01001-q1-json": "9622a1bfa6b7978f72f4fb0bd4308bce5824ef96968bf49d1ba79652aea7a117",
    "coeffs-4-csv": "e62d9361567a4debd5e2284d0403a6e70c5af0f1e286f653aa7eced68dd762ec",
    "coeffs-5-csv": "8c781ec73190e080b6a98e5fa0084dd731ccecf9adf2bc4cca111d870fe7a01c",
    "coeffs-6-csv": "df449f82bf111ff0c9c1fc064dc9ef55f53d01b3b25158e17760ae5c2ad814cf",
    "coeffs-7-csv": "7fe01e58ae8b99dc95159827be0017afa3386f25169fab6313543f02ddccf439",
    "coeffs-8-csv": "c098b447d9aa50a8bb44b184e96c1a7c8c0b854184063f20d34d9c6ae4e5f646",
    "coeffs-9-csv": "7649b2141a04a6b3889698e295507dc79899ece4ee502782fddf5e68614456c3",
    "coeffs-10-csv": "3f6e0891ffebd236f8560958b9a4ad025b93c28b4a32a0caae715fef906d9452",
    "coeffs-11-csv": "c38100e1a73666542ee654b1ff44d4c35b80909c331e2c8759233ffdf3c982e0",
    "coeffs-12-csv": "d5d74fddbcea1093de3d8aa5dfa23626e8e420116ccfe3bb77aa426d440a34a6",
    "coeffs-13-csv": "a44e318daa8598b29673f6178dab3aeaa7b716ffa97f1b63a0257e682f8bd870",
    "coeffs-14-csv": "b7914d080150608895dd59f7a22ad157b3dc15059fd9c86e06f207c7689e5950",
    "coeffs-15-csv": "5349b7b8c0d71a16a59a3bfc7d86ab0adb1c1f83627265151b95c2433afa3242",
    "coeffs-16-csv": "5349b7b8c0d71a16a59a3bfc7d86ab0adb1c1f83627265151b95c2433afa3242",
    "coeffs-17-csv": "dfe9f1fb82468a1ad8b2f24c5271f27b1e3a651115d1ff38543db95eda408dd2",
    "coeffs-18-csv": "19860f53d798c7e65ce5d31dd1a2cb611943bf5adff5f4a9cc5d81077399b71e",
    "coeffs-19-csv": "03cd2c28fe204550d844a7dc952b6b89ea88cbd63fc2a93a485b4728af3c9465",
    "coeffs-20-csv": "3af51029cfa2536e9ab69cba6f6467494c3fcb0fd4cec696c41fdb0f495b446f",
    "coeffs-21-csv": "f0f93a97d03944cf2253657cede49714d78ecfab9f6126fa7b28a2c6390279cc",
    "coeffs-22-csv": "fc5ed526704e23bbe113addd0db347b37e768f46dbcbfc4f48fe6e77c1e20d65",
    "coeffs-23-csv": "3cf50dca313ffeff988d5639dcb66d71a2e982d5a882c9d4fe7cee2b832952b4",
    "coeffs-24-csv": "9318ade897b0a0839106553d712eea4aa61d41aaa4eb624ac38fe44b72b17ef5",
    "coeffs-25-csv": "2e894ca11d4934af52df2db99ca446d011c7cdd2eab2b188eae31cd7c06a4482",
    "coeffs-26-csv": "03a5281d21da966645280c7df2b90908925df98016b11db633da7d12f084ce34",
    "coeffs-27-csv": "27157764ec8ad622e880ec1839e403aade060c7c4a8d5495b8d76229b1514d77",
    "coeffs-28-csv": "975eac0ab3ebbd881d452b9ee23cb1793159b6bcb5be50dcf15b8993171d0ff5",
    "coeffs-29-csv": "d51328470a85371318ce481a663057862665d8e1c2de02071b2a58059960f130",
    "coeffs-30-csv": "625fa2985e9f67a9fbd646f772060e777fc395791ed54be15dd228b9f1519eaa",
    "coeffs-31-csv": "75b8f53f65e1af9a199db18aca8567a81dc9ff6dae93aac637843c46ad4d13e7",
    "coeffs-32-csv": "a8c2b66e0add51019481ff91774c629bd6b10b0f5599b905e004a3289cabada8",
    "coeffs-33-csv": "9e3d3cd23ed6ca4cd4c34546b2111c67772939ee48db7c57e6b3f558dad6ed87",
    "coeffs-34-csv": "c1879f501ba6d9fae40de2b3b2843468aa5a0c3790fe9d66cfd2265ad656e76a",
    "coeffs-35-csv": "b69c975d6569029db6f308b993d417f60b231d6a96d78bf6a2a6d33131ceed33",
    "coeffs-36-csv": "b9240aa2246c010a66e571376163d679cf1d6c275ee8360fd32bb742f45525eb",
    "export-k1-w0-q10-csv": "50870068e21ae81cf4baa9a315f569ee0025f47432e7b7ae09bb4a46709067a0",
    "export-k1-w3-q6-csv": "9563a7f994ee7a64a3e29e230845b5c89c85b46e5c4df7e2919e7b408d257224",
    "export-k2-w00-q30-csv": "0159e34b3d51713bea80e6574eff033f9fbb22ab2c906a161136c140c3bfa6f5",
    "export-k2-w10-q12-csv": "2495b54465a37dff49cfab5a6136d2a421f300fde3912ad3ad9abe4751704e26",
    "export-k2-w02-q10-csv": "5a4dae9552d03688c5d40cae334e11acd7629afa1e52361d889bebd30fb6432a",
    "export-k2-w21-q6-csv": "9a6d74421645065dca1ff15d6eaf4ba6ebcd104ea15bc2858858df2c6a6b030b",
    "export-k3-w000-q8-csv": "c017404c4fadcf9b6a104599d4e1f280008f3d0260d0304221f85e62afc37264",
    "export-k3-w100-q5-csv": "0ecd5bd13b314865eb24e5cd3841cf72f0e534cb0cc23ec6c3a5c5042c52d642",
    "export-k3-w012-q3-csv": "e711227accd8a8edc2ec908abee1ee72bf020d4525db0776cc2143cbe268a62b",
    "export-k4-w0000-q4-csv": "6ccca6f37a3007970e880833349a2d58d3e0f254b4b7ee1e90f13ac7449c6d8d",
    "export-k4-w1001-q2-csv": "db23288a788a25b9dca0f0a027f3599a227a543f1820fb9504fb692b6baaaa47",
    "export-k5-w00000-q2-csv": "1e4ad0fa1b6199068416f9da61c139c8cd840f84cb46f63951d7a2c3dd9f3351",
    "export-k5-w01001-q1-csv": "b3bf7716599504fc94e6de5941ed8a06ba71a4bfa88567b9990ed178f99919ec",
    "error-1": "24c364acb3a6a9caf84873805aa606b2890448d65b46a6edc920319650531464",
    "error-2": "19e98b622fa559894e7530528dee28f447f8ccde8ac91ae5356238e6703770b7",
    "error-3": "a95a5603e66dca8d8d8cfe0a97f3311fcfbb4e769aff388e6366293b5cc634cf",
    "error-38": "09663dc337bc38c716be66c158e08639b577d5118bd377fcf5657152d521f0af",
    "error-41": "6a060fb0f8fe8fe1c1bb9d8e4a444d588d09a4faac5747a8994ff775727a8aeb",
    "error-42": "a500c71b41d86407f5c9744a0d79753154f55cd2f43e28f0d29597fb5e28dbee",
    "qtable-39-json": "25eb6ea44df1a5705052054934b469551953c7aae159380d9ed66846415b2207",
    "qtable-39-csv": "498c833e35f24ec6416b6fcb00ad07fde5f7491ec9bd7450430684982a76342c",
    "qtable-39-dt0.01": "7b562b416cc1f106ca4166f18a7cf0211e5104c2dfce45f795bb9cf066205355",
}


REQUESTS = golden_requests()

#: ``(label, argv)`` of every pinned run manifest, ``--output`` omitted: one
#: request per route through the command-line tool.
MANIFEST_REQUESTS: list[tuple[str, list[str]]] = [
    ("coeffs-table", ["coeffs", "--table", "20", "--format", "csv"]),
    ("coeffs-k", ["coeffs", "--k", "2", "--weights", "1,0", "--q", "3"]),
    ("export", ["export", "--k", "3", "--q", "2", "--format", "csv"]),
    ("error-table-table", ["error-table", "--table", "42", "--q", "1,7,1000"]),
    ("error-table-kind", ["error-table", "--kind", "triple_trig", "--q", "2,30", "--dt", "0.25",
                          "--format", "csv"]),
    ("q-table-table", ["q-table", "--table", "37", "--dt", "0.03125,0.01"]),
    ("q-table-all-csv", ["q-table", "--format", "csv"]),
    ("q-table-all-json", ["q-table"]),
    ("validate", ["validate", "--case", "pair_distinct", "--case", "triple_distinct",
                  "--steps", "64", "--paths", "700", "--seed", "3", "--dt", "0.25",
                  "--format", "csv"]),
]

#: SHA-256 of the ``.manifest.json`` each of :data:`MANIFEST_REQUESTS` writes.
#: A manifest holds the payload's checksum, so these pin the payloads too.
MANIFEST_DIGESTS: dict[str, str] = {
    "coeffs-table": "93963bda33c9d62b8421123029ae8e203cd0e456b8ff8931c50555a499edba45",
    "coeffs-k": "4c302a57fa3733caf5640f0c2205f2ce9fc8fe0e3d4132344ffe78f7bfecea1b",
    "export": "4808d044e1df50bbe9f91387122932f39fa2d4b5a73ec519d467a71e02aa00d4",
    "error-table-table": "07062e0de461c2f3efb07ab76a0fb56196d174d4bbfa6116a26b2dedf38177c5",
    "error-table-kind": "e6c90ca696dc9d2b9acc703dd59c9adbef06d35776e6f6ab7481b3fe165ff68c",
    "q-table-table": "c1630011a5e2522b7f4fd47b4d92751a1e5f8b8ff85553f7ec54bfe520eab410",
    "q-table-all-csv": "20c6d67940c546639f5e90e21e8c56ab0d294ce81180411904b9ebde7e7d0b73",
    "q-table-all-json": "5c39ce0bd721f4f41690766d73672af4c06b91dc47f4f7c4fd628e7cd06a8306",
    "validate": "9d36a44dfcfe729e0cf478cd163f9071bb237d8e67a83843e1f8d9e87cda971e",
}


def test_every_request_is_pinned():
    assert sorted(label for label, _ in REQUESTS) == sorted(DIGESTS)


@pytest.mark.parametrize("label,argv", REQUESTS, ids=[label for label, _ in REQUESTS])
def test_payload_digest(label, argv, tmp_path, monkeypatch):
    monkeypatch.delenv("STOCHINT_CACHE_DIR", raising=False)
    assert payload_digest(argv, tmp_path) == DIGESTS[label]


def test_every_manifest_request_is_pinned():
    assert [label for label, _ in MANIFEST_REQUESTS] == list(MANIFEST_DIGESTS)


@pytest.mark.parametrize(
    "label,argv", MANIFEST_REQUESTS, ids=[label for label, _ in MANIFEST_REQUESTS]
)
def test_manifest_digest(label, argv, tmp_path, monkeypatch):
    monkeypatch.delenv("STOCHINT_CACHE_DIR", raising=False)
    assert payload_digest(argv, tmp_path, ".manifest.json") == MANIFEST_DIGESTS[label]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS: dict[str, str] = {")
        for label, argv in REQUESTS:
            print(f'    "{label}": "{payload_digest(argv, Path(tmp))}",')
            sys.stdout.flush()
        print("}")
        print("MANIFEST_DIGESTS: dict[str, str] = {")
        for label, argv in MANIFEST_REQUESTS:
            print(f'    "{label}": "{payload_digest(argv, Path(tmp), ".manifest.json")}",')
        print("}")
